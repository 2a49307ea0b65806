//! Client → edge → origin scenarios: application workloads executed
//! through a [`BatchRelay`] must be observably identical to direct
//! execution, and faults on the edge↔origin hop must surface as per-client
//! batch errors with at-most-once execution. Every TCP edge runs on the
//! epoll reactor with worker-pool dispatch: the relay's blocking
//! flush-wait parks on dispatch workers, not event-loop threads.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Barrier};
use std::time::Duration;

use brmi::BatchExecutor;
use brmi_apps::bank::{brmi_purchase_session, Bank, CreditManagerSkeleton, SessionReport};
use brmi_apps::list::{brmi_nth_value, ListNode, RemoteListSkeleton};
use brmi_apps::noop::{brmi_noops, NoopServer, NoopSkeleton};
use brmi_apps::testkit::AppRig;
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::fault::{FaultPlan, FaultyTransport};
use brmi_transport::pool::TcpPool;
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_transport::relay::{BatchRelay, RelayPolicy};
use brmi_transport::sim::SimTransport;
use brmi_transport::{clock::SleepClock, Transport};
use brmi_wire::RemoteErrorKind;

/// Budgeted relay policy triggering on `batches × calls` pending calls.
fn policy(batches: usize, calls: usize) -> RelayPolicy {
    RelayPolicy::builder()
        .max_coalesced_calls(batches * calls)
        .max_delay(Duration::from_millis(50))
        .build()
}

#[test]
fn bank_sessions_through_tcp_relay_match_direct_execution() {
    // Direct reference run: the same programs against a plain in-process
    // rig, sequentially.
    let amounts: Vec<Vec<f64>> = vec![
        vec![10.0, 2000.0, 5.0], // one overdraft mid-session
        vec![-3.0, 40.0],        // one invalid amount
        vec![25.0, 25.0, 25.0, 25.0],
        vec![],
    ];
    let direct_bank = Bank::new();
    let direct_rig = AppRig::serve(
        "bank",
        CreditManagerSkeleton::remote_arc(direct_bank.clone()),
    );
    let mut direct_reports: Vec<SessionReport> = Vec::new();
    for (i, session) in amounts.iter().enumerate() {
        let customer = format!("cust{i}");
        direct_bank.open_account(&customer, 100.0);
        direct_reports.push(
            brmi_purchase_session(&direct_rig.conn, &direct_rig.root, &customer, session).unwrap(),
        );
    }

    // Relayed run: reactor origin, reactor-with-worker-pool edge, one
    // concurrent client per program, all waves coalesced.
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let relay_bank = Bank::new();
    origin
        .bind(
            "bank",
            CreditManagerSkeleton::remote_arc(relay_bank.clone()),
        )
        .unwrap();
    let reactor = ReactorServer::bind_with(
        "127.0.0.1:0",
        origin,
        ReactorConfig {
            reactor_threads: 2,
            dispatch_workers: 0,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let upstream = Arc::new(TcpPool::connect(reactor.local_addr()).unwrap());
    let upstream_stats = upstream.stats();
    // Sessions have differing call counts, so coalescing groups form
    // opportunistically under a short delay — equivalence must hold for
    // any grouping.
    let relay = BatchRelay::new(
        Arc::clone(&upstream) as Arc<dyn Transport>,
        RelayPolicy::builder()
            .max_coalesced_calls(8)
            .max_delay(Duration::from_millis(2))
            .build(),
    );
    // The edge reactor's worker pool absorbs the relay handler's blocking
    // flush-waits — one blocked batch per concurrent client.
    let mut edge = ReactorServer::bind_with(
        "127.0.0.1:0",
        relay.clone(),
        ReactorConfig {
            reactor_threads: 2,
            dispatch_workers: amounts.len(),
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let pool = Arc::new(TcpPool::connect(edge.local_addr()).unwrap());

    for i in 0..amounts.len() {
        relay_bank.open_account(&format!("cust{i}"), 100.0);
    }
    let gate = Arc::new(Barrier::new(amounts.len()));
    let handles: Vec<_> = amounts
        .iter()
        .enumerate()
        .map(|(i, session)| {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            let session = session.clone();
            std::thread::spawn(move || {
                let conn = Connection::new(pool);
                let root = conn.lookup("bank").unwrap();
                gate.wait();
                brmi_purchase_session(&conn, &root, &format!("cust{i}"), &session).unwrap()
            })
        })
        .collect();
    let relayed_reports: Vec<SessionReport> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(relayed_reports, direct_reports);
    for i in 0..amounts.len() {
        let customer = format!("cust{i}");
        assert_eq!(
            relay_bank.balance_of(&customer),
            direct_bank.balance_of(&customer),
            "server state must match for {customer}"
        );
    }
    assert!(
        upstream_stats.requests() > 0,
        "the origin hop was exercised"
    );
    edge.shutdown();
    relay.shutdown();
}

#[test]
fn list_traversals_through_relay_match_direct_including_exceptions() {
    let values = [7, 14, 21];
    let direct_rig = AppRig::serve(
        "list",
        RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
    );

    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    origin
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
        )
        .unwrap();
    let upstream = Arc::new(SimTransport::in_process(origin));
    let relay = BatchRelay::new(
        upstream,
        RelayPolicy::builder()
            .max_coalesced_calls(6)
            .max_delay(Duration::from_millis(1))
            .build(),
    );
    let conn = Connection::new(Arc::new(SimTransport::in_process(relay.clone())));
    let root = conn.lookup("list").unwrap();

    // Depths 0..2 succeed; 3.. re-throw EndOfListException — the abort
    // cursor must land on the same hop relayed as direct.
    for n in 0..6 {
        let direct = brmi_nth_value(&direct_rig.conn, &direct_rig.root, n);
        let relayed = brmi_nth_value(&conn, &root, n);
        match (direct, relayed) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "depth {n}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.exception(), b.exception(), "depth {n}");
                assert_eq!(a.kind(), b.kind(), "depth {n}");
            }
            (direct, relayed) => panic!("depth {n} diverged: {direct:?} vs {relayed:?}"),
        }
    }
    relay.shutdown();
}

#[test]
fn upstream_drop_fails_each_member_batch_without_duplicate_execution() {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let noop = NoopServer::new();
    origin
        .bind("noop", NoopSkeleton::remote_arc(noop.clone()))
        .unwrap();
    // Forwarded lookups: 4 requests; then super-batches. Fail the 6th
    // upstream request — the second wave — and everything after recovers.
    let upstream = FaultyTransport::new(SimTransport::in_process(origin), FaultPlan::OnNth(6));
    let relay = BatchRelay::new(Arc::clone(&upstream) as Arc<dyn Transport>, policy(4, 5));
    let client_transport = Arc::new(SimTransport::in_process(relay.clone()));

    let gate = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let transport = Arc::clone(&client_transport);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let conn = Connection::new(transport);
                let root = conn.lookup("noop").unwrap();
                gate.wait();
                let mut outcomes = Vec::new();
                for _ in 0..3 {
                    outcomes.push(brmi_noops(&conn, &root, 5));
                }
                outcomes
            })
        })
        .collect();
    let per_client: Vec<Vec<Result<(), brmi_wire::RemoteError>>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut ok = 0u64;
    let mut failed = 0u64;
    for outcomes in &per_client {
        for outcome in outcomes {
            match outcome {
                Ok(()) => ok += 1,
                Err(err) => {
                    assert_eq!(
                        err.kind(),
                        RemoteErrorKind::Transport,
                        "mid-super-batch drops surface as per-client transport errors"
                    );
                    failed += 1;
                }
            }
        }
    }
    // The dropped wave carried one batch from every client.
    assert_eq!(failed, 4, "exactly the dropped wave's batches failed");
    assert_eq!(ok, 8);
    // At-most-once: the dropped wave never reached the origin and nothing
    // was replayed — executed calls are exactly the successful batches'.
    assert_eq!(noop.calls(), ok * 5);
    assert_eq!(upstream.injected(), 1);
    relay.shutdown();
}

#[test]
fn mid_run_origin_disconnect_over_tcp_preserves_at_most_once() {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let noop = NoopServer::new();
    origin
        .bind("noop", NoopSkeleton::remote_arc(noop.clone()))
        .unwrap();
    let mut origin_server = ReactorServer::bind("127.0.0.1:0", origin).unwrap();
    let upstream = Arc::new(TcpPool::connect(origin_server.local_addr()).unwrap());
    let relay = BatchRelay::new(Arc::clone(&upstream) as Arc<dyn Transport>, policy(2, 4));
    // One dispatch worker per client: each parks in the relay's blocking
    // flush-wait, which would stall the reactor threads if run inline.
    let mut edge = ReactorServer::bind_with(
        "127.0.0.1:0",
        relay.clone(),
        ReactorConfig {
            dispatch_workers: 2,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let pool = Arc::new(TcpPool::connect(edge.local_addr()).unwrap());

    let calls_per_batch = 4usize;
    let gate = Arc::new(Barrier::new(2 + 1));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let conn = Connection::new(pool);
                let root = conn.lookup("noop").unwrap();
                gate.wait();
                let mut successes = 0u64;
                let mut failures = 0u64;
                // Stream batches until the disconnect is observed (bounded
                // so a broken test cannot spin forever).
                for _ in 0..20_000 {
                    match brmi_noops(&conn, &root, calls_per_batch) {
                        Ok(()) => successes += 1,
                        Err(_) => {
                            failures += 1;
                            break;
                        }
                    }
                }
                (successes, failures)
            })
        })
        .collect();

    gate.wait();
    // Kill the origin mid-run: some super-batch dies on the wire.
    std::thread::sleep(Duration::from_millis(3));
    origin_server.shutdown();

    let mut successes = 0u64;
    let mut failures = 0u64;
    for handle in handles {
        let (ok, failed) = handle.join().unwrap();
        successes += ok;
        failures += failed;
    }
    assert!(failures > 0, "the disconnect must surface to clients");

    // At-most-once under disconnection: nothing is ever replayed, so the
    // origin executed at least every acknowledged batch, at most also the
    // in-flight ones whose replies were lost — and each inner batch ran
    // exactly once (whole multiples of the batch size, bounded by the
    // total attempted).
    let executed = noop.calls();
    assert!(executed >= successes * calls_per_batch as u64);
    assert!(executed <= (successes + failures) * calls_per_batch as u64);
    assert_eq!(executed % calls_per_batch as u64, 0);
    edge.shutdown();
    relay.shutdown();
}

#[test]
fn delayed_upstream_changes_timing_not_results() {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let noop = NoopServer::new();
    origin
        .bind("noop", NoopSkeleton::remote_arc(noop.clone()))
        .unwrap();
    let upstream = FaultyTransport::with_delay(
        SimTransport::in_process(origin),
        FaultPlan::None,
        SleepClock::new(),
        Duration::from_millis(2),
    );
    let relay = BatchRelay::new(Arc::clone(&upstream) as Arc<dyn Transport>, policy(3, 2));
    let client_transport = Arc::new(SimTransport::in_process(relay.clone()));

    let gate = Arc::new(Barrier::new(3));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let transport = Arc::clone(&client_transport);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let conn = Connection::new(transport);
                let root = conn.lookup("noop").unwrap();
                gate.wait();
                for _ in 0..4 {
                    brmi_noops(&conn, &root, 2).unwrap();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(noop.calls(), 3 * 4 * 2, "slow links lose nothing");
    relay.shutdown();
}
