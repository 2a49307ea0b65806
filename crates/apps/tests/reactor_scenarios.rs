//! Every case-study scenario over the reactor transport.
//!
//! The epoll reactor is the one TCP server; this suite proves every
//! application runs over it unchanged — bank, list and translator clients
//! (RMI and BRMI alike) behave identically over it, concurrent clients
//! multiplex onto a fixed set of reactor threads, and the server sustains
//! well over a hundred simultaneous connections with no thread per
//! connection.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use brmi::BatchExecutor;
use brmi_apps::bank::{
    brmi_purchase_session, rmi_purchase_session, Bank, CreditManagerSkeleton, CreditManagerStub,
};
use brmi_apps::list::{
    brmi_nth_value, rmi_nth_value, ListNode, RemoteListSkeleton, RemoteListStub,
};
use brmi_apps::stress::{run_reactor_stress, StressConfig};
use brmi_apps::translator::{
    brmi_translate_all, rmi_translate_all, DictionaryTranslator, TranslatorSkeleton,
    TranslatorStub, Word,
};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::pool::TcpPool;
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_transport::tcp::TcpTransport;

struct ReactorRig {
    reactor: ReactorServer,
}

/// One reactor server with every scenario's root bound by name.
fn rig() -> ReactorRig {
    rig_with(0)
}

/// As [`rig`], dispatching through a worker pool of the given size.
fn rig_with(dispatch_workers: usize) -> ReactorRig {
    let server = RmiServer::new();
    BatchExecutor::install(&server);

    let bank = Bank::new();
    bank.open_account("alice", 1000.0);
    server
        .bind("bank", CreditManagerSkeleton::remote_arc(bank))
        .unwrap();
    server
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&[7, 14, 21, 28, 35])),
        )
        .unwrap();
    server
        .bind(
            "translator",
            TranslatorSkeleton::remote_arc(DictionaryTranslator::english_to_french()),
        )
        .unwrap();

    let reactor = ReactorServer::bind_with(
        "127.0.0.1:0",
        server,
        ReactorConfig {
            reactor_threads: 2,
            dispatch_workers,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    ReactorRig { reactor }
}

/// Clients go through the pooled transport: the pool exercises checkout /
/// checkin on every round trip while the reactor multiplexes the sockets.
fn connect(rig: &ReactorRig) -> Connection {
    Connection::new(Arc::new(
        TcpPool::connect(rig.reactor.local_addr()).unwrap(),
    ))
}

#[test]
fn bank_scenario_over_the_reactor() {
    let rig = rig();
    let conn = connect(&rig);
    let manager = conn.lookup("bank").unwrap();

    let amounts = [100.0, 2000.0, 50.0];
    let brmi = brmi_purchase_session(&conn, &manager, "alice", &amounts).unwrap();
    let rmi =
        rmi_purchase_session(&CreditManagerStub::new(manager.clone()), "alice", &amounts).unwrap();

    // Same observable behaviour: per-purchase outcomes agree (the second
    // purchase overdrafts in both sessions) and only the balances differ
    // by the repeated successful purchases.
    assert_eq!(brmi.purchase_errors, rmi.purchase_errors);
    assert_eq!(
        brmi.purchase_errors,
        vec![None, Some("OverdraftException".to_owned()), None]
    );
    let missing = brmi_purchase_session(&conn, &manager, "nobody", &[10.0]).unwrap();
    assert_eq!(
        missing.credit_line,
        Err("AccountNotFoundException".to_owned())
    );
}

/// The worker-pool dispatch path must be observably identical to inline
/// dispatch for a real application scenario (the blocking-handler and
/// reply-ordering specifics are unit-tested in `brmi_transport::reactor`).
#[test]
fn bank_scenario_over_worker_pool_dispatch() {
    let rig = rig_with(4);
    let conn = connect(&rig);
    let manager = conn.lookup("bank").unwrap();
    let amounts = [100.0, 2000.0, 50.0];
    let brmi = brmi_purchase_session(&conn, &manager, "alice", &amounts).unwrap();
    assert_eq!(
        brmi.purchase_errors,
        vec![None, Some("OverdraftException".to_owned()), None]
    );
}

#[test]
fn list_scenario_over_the_reactor() {
    let rig = rig();
    let conn = connect(&rig);
    let head = conn.lookup("list").unwrap();
    for n in 0..5 {
        assert_eq!(
            brmi_nth_value(&conn, &head, n).unwrap(),
            rmi_nth_value(&RemoteListStub::new(head.clone()), n).unwrap()
        );
    }
    assert_eq!(brmi_nth_value(&conn, &head, 3).unwrap(), 28);
}

#[test]
fn translator_scenario_over_the_reactor() {
    let rig = rig();
    let conn = connect(&rig);
    let translator = conn.lookup("translator").unwrap();
    let words: Vec<Word> = ["hello", "world", "xyzzy", "batch"]
        .iter()
        .map(|w| Word::new(w, "en"))
        .collect();
    let brmi = brmi_translate_all(&conn, &translator, &words).unwrap();
    let rmi = rmi_translate_all(&TranslatorStub::new(translator.clone()), &words).unwrap();
    assert_eq!(brmi, rmi);
    assert_eq!(brmi[0], Ok(Word::new("bonjour", "fr")));
    assert_eq!(brmi[2], Err("UnknownWordException".to_owned()));
}

#[test]
fn thirty_two_concurrent_connections_issue_batches() {
    let rig = rig();
    let addr = rig.reactor.local_addr();
    let handles: Vec<_> = (0..32)
        .map(|worker| {
            std::thread::spawn(move || {
                // One dedicated connection per worker, held for the whole
                // run: 32 sockets live in the reactor simultaneously.
                let conn = Connection::new(Arc::new(TcpTransport::connect(addr).unwrap()));
                let translator = conn.lookup("translator").unwrap();
                let head = conn.lookup("list").unwrap();
                for i in 0..5 {
                    let words = vec![Word::new("hello", "en"), Word::new("latency", "en")];
                    let translated = brmi_translate_all(&conn, &translator, &words).unwrap();
                    assert_eq!(
                        translated[0],
                        Ok(Word::new("bonjour", "fr")),
                        "worker {worker} iteration {i}"
                    );
                    assert_eq!(brmi_nth_value(&conn, &head, 2).unwrap(), 21);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}

/// The scale acceptance test: ≥128 connections established and served at
/// the same time by two reactor threads (no thread-per-connection server
/// could claim this without 128 stacks).
#[test]
fn reactor_sustains_128_concurrent_connections() {
    let rig = rig();
    let addr = rig.reactor.local_addr();
    const CLIENTS: usize = 128;

    // Establish all 128 connections up front and prove each is live with a
    // round trip, while every other connection stays open.
    let conns: Vec<Connection> = (0..CLIENTS)
        .map(|_| Connection::new(Arc::new(TcpTransport::connect(addr).unwrap())))
        .collect();
    for conn in &conns {
        let head = conn.lookup("list").unwrap();
        assert_eq!(brmi_nth_value(conn, &head, 1).unwrap(), 14);
    }
    assert!(
        rig.reactor.active_connections() >= CLIENTS,
        "reactor holds {} connections, expected at least {CLIENTS}",
        rig.reactor.active_connections()
    );

    // Now drive batches over all of them concurrently.
    let handles: Vec<_> = conns
        .into_iter()
        .map(|conn| {
            std::thread::spawn(move || {
                let head = conn.lookup("list").unwrap();
                for _ in 0..3 {
                    assert_eq!(brmi_nth_value(&conn, &head, 4).unwrap(), 35);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}

#[test]
fn pooled_stress_run_completes_with_exact_counts() {
    let config = StressConfig {
        clients: 16,
        batches_per_client: 10,
        calls_per_batch: 25,
        reactor_threads: 2,
    };
    let report = run_reactor_stress(&config).unwrap();
    assert_eq!(report.calls_executed, 16 * 10 * 25);
    assert_eq!(report.round_trips, 16 + 16 * 10);
    assert!(report.bytes_sent > 0 && report.bytes_received > 0);
}
