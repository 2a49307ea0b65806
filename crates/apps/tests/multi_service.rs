//! Cross-application integration: every case-study service on ONE server,
//! reached over real TCP by concurrent clients mixing RMI and BRMI.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor};
use brmi_apps::bank::{brmi_purchase_session, Bank, CreditManagerSkeleton};
use brmi_apps::fileserver::{brmi_listing, DirectorySkeleton, InMemoryDirectory};
use brmi_apps::list::{brmi_nth_value, ListNode, RemoteListSkeleton};
use brmi_apps::noop::{BNoop, NoopServer, NoopSkeleton};
use brmi_apps::simulation::{brmi_run, SimulationServer, SimulationSkeleton};
use brmi_apps::translator::{brmi_translate_all, DictionaryTranslator, TranslatorSkeleton, Word};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::reactor::ReactorServer;
use brmi_transport::tcp::TcpTransport;

fn full_server() -> (Arc<RmiServer>, ReactorServer) {
    let server = RmiServer::new();
    BatchExecutor::install(&server);

    let dir = InMemoryDirectory::new();
    dir.populate(5, 100);
    server
        .bind("files", DirectorySkeleton::remote_arc(dir))
        .unwrap();

    let bank = Bank::new();
    bank.open_account("alice", 500.0);
    server
        .bind("bank", CreditManagerSkeleton::remote_arc(bank))
        .unwrap();

    server
        .bind(
            "translator",
            TranslatorSkeleton::remote_arc(DictionaryTranslator::english_to_french()),
        )
        .unwrap();
    server
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&[1, 2, 3, 4, 5])),
        )
        .unwrap();
    server
        .bind("noop", NoopSkeleton::remote_arc(NoopServer::new()))
        .unwrap();
    server
        .bind(
            "simulation",
            SimulationSkeleton::remote_arc(SimulationServer::new()),
        )
        .unwrap();

    let tcp = ReactorServer::bind("127.0.0.1:0", server.clone()).unwrap();
    (server, tcp)
}

#[test]
fn all_services_coexist_on_one_server() {
    let (server, tcp) = full_server();
    let conn = Connection::new(Arc::new(TcpTransport::connect(tcp.local_addr()).unwrap()));

    assert_eq!(
        conn.registry_names().unwrap(),
        vec!["bank", "files", "list", "noop", "simulation", "translator"]
    );

    let files = conn.lookup("files").unwrap();
    assert_eq!(brmi_listing(&conn, &files).unwrap().len(), 5);

    let list = conn.lookup("list").unwrap();
    assert_eq!(brmi_nth_value(&conn, &list, 4).unwrap(), 5);

    let bank = conn.lookup("bank").unwrap();
    let report = brmi_purchase_session(&conn, &bank, "alice", &[10.0]).unwrap();
    assert_eq!(report.purchase_errors, vec![None]);

    let translator = conn.lookup("translator").unwrap();
    let out = brmi_translate_all(&conn, &translator, &[Word::new("cat", "en")]).unwrap();
    assert_eq!(out[0], Ok(Word::new("chat", "fr")));

    let simulation = conn.lookup("simulation").unwrap();
    assert_eq!(brmi_run(&conn, &simulation, 3, 2).unwrap(), 6.0);
    assert_eq!(server.loopback_calls(), 0);
}

#[test]
fn one_batch_can_span_services() {
    // A single batch mixing calls on the noop service and the list — the
    // paper's "any number of remote calls on many remote objects".
    let (_server, tcp) = full_server();
    let conn = Connection::new(Arc::new(TcpTransport::connect(tcp.local_addr()).unwrap()));
    let noop_ref = conn.lookup("noop").unwrap();
    let list_ref = conn.lookup("list").unwrap();

    let batch = Batch::new(conn.clone(), AbortPolicy);
    let noop = BNoop::new(&batch, &noop_ref);
    let list = brmi_apps::list::BRemoteList::new(&batch, &list_ref);
    let ping = noop.noop();
    let head = list.get_value();
    let second = list.next().get_value();
    batch.flush().unwrap();
    ping.get().unwrap();
    assert_eq!(head.get().unwrap(), 1);
    assert_eq!(second.get().unwrap(), 2);
}

#[test]
fn concurrent_mixed_clients_over_tcp() {
    let (_server, tcp) = full_server();
    let addr = tcp.local_addr();
    let handles: Vec<_> = (0..6)
        .map(|worker| {
            std::thread::spawn(move || {
                let conn = Connection::new(Arc::new(TcpTransport::connect(addr).unwrap()));
                for round in 0..10 {
                    match (worker + round) % 3 {
                        0 => {
                            let files = conn.lookup("files").unwrap();
                            assert_eq!(brmi_listing(&conn, &files).unwrap().len(), 5);
                        }
                        1 => {
                            let list = conn.lookup("list").unwrap();
                            assert_eq!(brmi_nth_value(&conn, &list, 2).unwrap(), 3);
                        }
                        _ => {
                            let translator = conn.lookup("translator").unwrap();
                            let out =
                                brmi_translate_all(&conn, &translator, &[Word::new("dog", "en")])
                                    .unwrap();
                            assert_eq!(out[0], Ok(Word::new("chien", "fr")));
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}
