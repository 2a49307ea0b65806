//! End-to-end coverage of the extension subsystems over real TCP:
//! the implicit-batching runtime, distributed GC, the DTO facade and
//! concurrent chained-batch sessions all have to work over actual
//! sockets, not just the in-process transport.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor};
use brmi_apps::fileserver::{
    dto_listing, rmi_listing, DirectoryFacadeSkeleton, DirectoryFacadeStub, DirectorySkeleton,
    DirectoryStub, FacadeServer, InMemoryDirectory,
};
use brmi_apps::implicit_clients::{implicit_listing, implicit_nth_value};
use brmi_apps::list::{BRemoteList, ListNode, RemoteListSkeleton, RemoteListStub};
use brmi_rmi::{Connection, DgcConfig, LeaseHolder, RmiServer};
use brmi_transport::clock::{Clock, VirtualClock};
use brmi_transport::pool::TcpPool;
use brmi_transport::reactor::ReactorServer;
use brmi_wire::RemoteErrorKind;

struct TcpRig {
    server: Arc<RmiServer>,
    tcp: ReactorServer,
    clock: Arc<VirtualClock>,
}

fn rig() -> TcpRig {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let clock = VirtualClock::new();
    server.enable_dgc(
        clock.clone(),
        DgcConfig {
            max_lease: Duration::from_secs(30),
        },
    );

    let dir = InMemoryDirectory::new();
    dir.populate(6, 128);
    server
        .bind("files", DirectorySkeleton::remote_arc(dir.clone()))
        .unwrap();
    server
        .bind(
            "facade",
            DirectoryFacadeSkeleton::remote_arc(FacadeServer::new(dir)),
        )
        .unwrap();
    server
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&[7, 14, 21, 28, 35])),
        )
        .unwrap();

    let tcp = ReactorServer::bind("127.0.0.1:0", server.clone()).unwrap();
    TcpRig { server, tcp, clock }
}

fn connect(rig: &TcpRig) -> Connection {
    Connection::new(Arc::new(TcpPool::connect(rig.tcp.local_addr()).unwrap()))
}

#[test]
fn implicit_runtime_works_over_tcp() {
    let rig = rig();
    let conn = connect(&rig);
    let files = conn.lookup("files").unwrap();
    let rows = implicit_listing(&conn, &files).unwrap();
    assert_eq!(rows.len(), 6);

    let list = conn.lookup("list").unwrap();
    assert_eq!(implicit_nth_value(&conn, &list, 3).unwrap(), 28);
}

#[test]
fn dto_facade_works_over_tcp() {
    let rig = rig();
    let conn = connect(&rig);
    let files = conn.lookup("files").unwrap();
    let facade = conn.lookup("facade").unwrap();
    let via_facade = dto_listing(&DirectoryFacadeStub::new(facade)).unwrap();
    let via_rmi = rmi_listing(&DirectoryStub::new(files)).unwrap();
    assert_eq!(via_facade, via_rmi);
}

#[test]
fn dgc_lease_lifecycle_over_tcp() {
    let rig = rig();
    let conn = connect(&rig);
    let dgc = rig.server.dgc().unwrap();

    // An RMI hop exports the next node with a lease.
    let list = conn.lookup("list").unwrap();
    let head = RemoteListStub::new(list);
    let second = head.next().unwrap();
    assert_eq!(dgc.lease_count(), 1);

    // Track and renew it over the socket.
    let holder = LeaseHolder::new(conn.clone(), Duration::from_secs(30));
    holder.track(second.remote_ref().id());
    rig.clock.advance(Duration::from_secs(25));
    holder.renew_all().unwrap();
    rig.clock.advance(Duration::from_secs(25));
    assert_eq!(rig.server.dgc_sweep(), 0, "renewed in time");
    assert_eq!(second.get_value().unwrap(), 14);

    // Let it lapse: the stub dies, the chain can be re-fetched.
    rig.clock.advance(Duration::from_secs(31));
    assert_eq!(rig.server.dgc_sweep(), 1);
    assert_eq!(
        second.get_value().unwrap_err().kind(),
        RemoteErrorKind::NoSuchObject
    );
    assert_eq!(head.next().unwrap().get_value().unwrap(), 14);
}

#[test]
fn concurrent_chained_sessions_do_not_interfere() {
    let rig = rig();
    let addr = rig.tcp.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|worker| {
            std::thread::spawn(move || {
                let conn = Connection::new(Arc::new(TcpPool::connect(addr).unwrap()));
                let list = conn.lookup("list").unwrap();
                for _ in 0..5 {
                    // Each iteration holds a chained session open across
                    // two flushes, interleaved with other workers'.
                    let batch = Batch::new(conn.clone(), AbortPolicy);
                    let head = BRemoteList::new(&batch, &list);
                    let second = head.next();
                    batch.flush_and_continue().unwrap();
                    let value = second.get_value();
                    let third_value = second.next().get_value();
                    batch.flush().unwrap();
                    assert_eq!(value.get().unwrap(), 14, "worker {worker}");
                    assert_eq!(third_value.get().unwrap(), 21);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // Every chained session was released by its final flush.
    assert_eq!(
        rig.server.dgc().unwrap().lease_count(),
        0,
        "chained batches export nothing, so no leases either"
    );
}

#[test]
fn implicit_runtimes_from_many_threads() {
    let rig = rig();
    let addr = rig.tcp.local_addr();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let conn = Connection::new(Arc::new(TcpPool::connect(addr).unwrap()));
                let list = conn.lookup("list").unwrap();
                for n in 0..5 {
                    assert_eq!(
                        implicit_nth_value(&conn, &list, n).unwrap(),
                        7 * (n as i32 + 1)
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}
