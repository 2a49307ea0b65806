//! End-to-end keyed retry over real TCP: the origin process (its
//! `RmiServer`, executor, bank state and reply cache) stays up while its
//! TCP listener dies and comes back — the worst realistic outage for a
//! pooled client. A keyed connection over a [`TcpPool`] wrapped in a
//! [`RetryTransport`] rides through the restart: stale idle sockets are
//! discarded, keyed frames are re-sent, and the origin charges every
//! purchase exactly once.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use brmi::BatchExecutor;
use brmi_apps::bank::{brmi_purchase_session, Bank, CreditManagerSkeleton};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::mux::MuxClient;
use brmi_transport::pool::TcpPool;
use brmi_transport::reactor::ReactorServer;
use brmi_transport::retry::{RetryPolicy, RetryTransport};
use brmi_transport::Transport;
use brmi_wire::RemoteError;

#[test]
fn keyed_sessions_ride_through_a_listener_restart() {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let bank = Bank::new();
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");
    bank.open_account("carol", 1000.0);

    let mut tcp = ReactorServer::bind("127.0.0.1:0", origin.clone()).expect("bind");
    let addr = tcp.local_addr();
    let pool = Arc::new(TcpPool::connect(addr).expect("dial"));
    let conn = Connection::new_keyed(RetryTransport::over(pool, RetryPolicy::immediate(8)));
    let root = conn.lookup("bank").expect("lookup");

    let first = brmi_purchase_session(&conn, &root, "carol", &[100.0, 50.0]).expect("session 1");
    assert_eq!(first.credit_line, Ok(850.0));

    // Kill only the listener; the origin (and its reply cache) lives on.
    tcp.shutdown();
    let _tcp = ReactorServer::bind(addr, origin.clone()).expect("rebind on the same port");

    // The pool's idle sockets are now dead. Keyed traffic redials and
    // re-sends; nothing surfaces to the application.
    let second = brmi_purchase_session(&conn, &root, "carol", &[25.0]).expect("session 2");
    assert_eq!(second.credit_line, Ok(825.0));
    assert_eq!(
        bank.balance_of("carol"),
        Some(175.0),
        "every purchase charged exactly once across the restart"
    );
    assert_eq!(
        origin.reply_cache().replays(),
        0,
        "a clean re-send after reconnect executes fresh — no duplicate reached the origin"
    );
}

/// Dials a [`MuxClient`], waiting out the listener-down window: during a
/// reactor restart the port refuses connections until the rebind lands,
/// and a real client keeps dialing rather than giving up inside the gap.
fn patient_mux_dial(addr: std::net::SocketAddr) -> Result<Arc<dyn Transport>, RemoteError> {
    let mut last = None;
    for _ in 0..400 {
        match MuxClient::connect(addr) {
            Ok(client) => return Ok(client as Arc<dyn Transport>),
            Err(err) => {
                last = Some(err);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    }
    Err(last.unwrap_or_else(|| RemoteError::transport("mux dial never attempted")))
}

/// The reactor tier's worst outage: the epoll listener is torn down
/// abortively — every multiplexed socket drops with calls in flight —
/// and a replacement binds the *same* port. Keyed traffic from several
/// concurrent logical clients, each a [`MuxClient`] behind a
/// [`RetryTransport`], rides through: in-flight calls fail over to the
/// reborn listener and the origin charges every purchase exactly once.
#[test]
fn mux_clients_survive_an_abortive_reactor_rebind_on_the_same_port() {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let bank = Bank::new();
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");

    const WORKERS: usize = 3;
    const SESSIONS: usize = 4;
    for worker in 0..WORKERS {
        bank.open_account(&format!("acct-{worker}"), 1000.0);
    }

    let mut reactor = ReactorServer::bind("127.0.0.1:0", origin.clone()).expect("bind");
    let addr = reactor.local_addr();

    let start = Arc::new(std::sync::Barrier::new(WORKERS + 1));
    let workers: Vec<_> = (0..WORKERS)
        .map(|worker| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let retry =
                    RetryTransport::new(move || patient_mux_dial(addr), RetryPolicy::immediate(16));
                let conn = Connection::new_keyed(retry as Arc<dyn Transport>);
                let root = conn.lookup("bank").expect("lookup");
                let account = format!("acct-{worker}");
                start.wait();
                for session in 0..SESSIONS {
                    brmi_purchase_session(&conn, &root, &account, &[10.0, 5.0])
                        .unwrap_or_else(|err| panic!("{account} session {session}: {err}"));
                }
            })
        })
        .collect();

    // Drop the listener abortively while the workers are mid-traffic,
    // then rebind the very same port.
    start.wait();
    reactor.shutdown();
    let reactor2 = ReactorServer::bind(addr, origin.clone()).expect("rebind on the same port");
    assert_eq!(reactor2.local_addr(), addr);

    for worker in workers {
        worker.join().expect("worker panicked");
    }
    for worker in 0..WORKERS {
        assert_eq!(
            bank.balance_of(&format!("acct-{worker}")),
            Some((SESSIONS as f64) * 15.0),
            "acct-{worker}: every purchase charged exactly once across the rebind"
        );
    }
}
