//! Distributed GC end-to-end: leases govern marshalled exports, pinned
//! exports survive, and — the paper-relevant claim — BRMI's identity
//! preservation (Section 4.4) removes the export/lease pressure RMI
//! creates with every remote-returning call.

use std::sync::Arc;
use std::time::Duration;

use brmi_rmi::{Connection, DgcConfig, LeaseHolder, RmiServer};
use brmi_transport::clock::{Clock, VirtualClock};
use brmi_transport::sim::SimTransport;
use brmi_wire::{ObjectId, RemoteErrorKind, Value};

mod support {
    use std::any::Any;
    use std::sync::Arc;

    use brmi_rmi::{no_such_method, CallCtx, InArg, OutValue, RemoteObject};
    use brmi_wire::{RemoteError, Value};

    /// A spawner: every `spawn` call returns a fresh remote child.
    pub struct Spawner;

    impl RemoteObject for Spawner {
        fn interface_name(&self) -> &'static str {
            "spawner"
        }

        fn invoke(
            &self,
            method: &str,
            _args: &[InArg<'_>],
            _ctx: &CallCtx,
        ) -> Result<OutValue, RemoteError> {
            match method {
                "spawn" => Ok(OutValue::Remote(Arc::new(Spawner))),
                "ping" => Ok(OutValue::Data(Value::I32(1))),
                other => Err(no_such_method("spawner", other)),
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }
}

use support::Spawner;

struct DgcRig {
    server: Arc<RmiServer>,
    conn: Connection,
    clock: Arc<VirtualClock>,
    root: ObjectId,
}

fn rig(max_lease: Duration) -> DgcRig {
    let server = RmiServer::new();
    let clock = VirtualClock::new();
    server.enable_dgc(clock.clone(), DgcConfig { max_lease });
    let root = server.bind("spawner", Arc::new(Spawner)).expect("bind");
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    DgcRig {
        server,
        conn,
        clock,
        root,
    }
}

fn spawn_child(rig: &DgcRig) -> ObjectId {
    match rig.conn.call(rig.root, "spawn", vec![]).expect("spawn") {
        Value::RemoteRef(id) => id,
        other => panic!("expected remote ref, got {other:?}"),
    }
}

#[test]
fn marshalled_exports_carry_leases_but_pinned_roots_do_not() {
    let rig = rig(Duration::from_secs(10));
    let dgc = rig.server.dgc().expect("dgc enabled");
    let child = spawn_child(&rig);
    assert!(dgc.is_leased(child));
    assert!(!dgc.is_leased(rig.root), "explicit binds are pinned");
    assert_eq!(dgc.stats().granted, 1);
}

#[test]
fn unrenewed_lease_expires_and_the_object_is_unexported() {
    let rig = rig(Duration::from_secs(10));
    let child = spawn_child(&rig);
    assert!(rig.conn.call(child, "ping", vec![]).is_ok());

    rig.clock.advance(Duration::from_secs(11));
    assert_eq!(rig.server.dgc_sweep(), 1);
    let err = rig.conn.call(child, "ping", vec![]).unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::NoSuchObject);

    // The pinned root is untouched.
    assert!(rig.conn.call(rig.root, "ping", vec![]).is_ok());
}

#[test]
fn renewal_keeps_the_object_alive() {
    let rig = rig(Duration::from_secs(10));
    let child = spawn_child(&rig);
    for _ in 0..5 {
        rig.clock.advance(Duration::from_secs(8));
        let granted = rig
            .conn
            .dirty(&[child], Duration::from_secs(10))
            .expect("dirty");
        assert_eq!(granted, Duration::from_secs(10));
    }
    assert_eq!(rig.server.dgc_sweep(), 0);
    assert!(rig.conn.call(child, "ping", vec![]).is_ok());
}

#[test]
fn clean_unexports_immediately() {
    let rig = rig(Duration::from_secs(600));
    let child = spawn_child(&rig);
    rig.conn.clean(&[child]).expect("clean");
    let err = rig.conn.call(child, "ping", vec![]).unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::NoSuchObject);
}

#[test]
fn lease_holder_tracks_renews_and_releases() {
    let rig = rig(Duration::from_secs(10));
    let holder = LeaseHolder::new(rig.conn.clone(), Duration::from_secs(10));
    let a = spawn_child(&rig);
    let b = spawn_child(&rig);
    holder.track(a);
    holder.track(b);
    holder.track(a); // duplicate tracking is idempotent
    assert_eq!(holder.tracked(), 2);

    rig.clock.advance(Duration::from_secs(8));
    holder.renew_all().expect("renew");
    rig.clock.advance(Duration::from_secs(8));
    assert_eq!(rig.server.dgc_sweep(), 0, "renewal covered both");

    holder.release(a).expect("release");
    assert_eq!(holder.tracked(), 1);
    assert_eq!(
        rig.conn.call(a, "ping", vec![]).unwrap_err().kind(),
        RemoteErrorKind::NoSuchObject
    );
    assert!(rig.conn.call(b, "ping", vec![]).is_ok());

    holder.release_all().expect("release all");
    assert_eq!(holder.tracked(), 0);
    assert_eq!(
        rig.conn.call(b, "ping", vec![]).unwrap_err().kind(),
        RemoteErrorKind::NoSuchObject
    );
}

#[test]
fn dirty_without_dgc_is_a_protocol_error() {
    let server = RmiServer::new();
    server.bind("spawner", Arc::new(Spawner)).unwrap();
    let conn = Connection::new(Arc::new(SimTransport::in_process(server)));
    let err = conn
        .dirty(&[ObjectId(1)], Duration::from_secs(1))
        .unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Protocol);
    let err = conn.clean(&[ObjectId(1)]).unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Protocol);
}

#[test]
fn expired_object_stays_gone_even_if_dirtied_late() {
    let rig = rig(Duration::from_secs(5));
    let child = spawn_child(&rig);
    rig.clock.advance(Duration::from_secs(6));
    rig.server.dgc_sweep();
    // A late dirty cannot resurrect the lease (Java behaviour: the stub
    // just fails from now on).
    rig.conn
        .dirty(&[child], Duration::from_secs(5))
        .expect("dirty itself succeeds");
    assert_eq!(
        rig.conn.call(child, "ping", vec![]).unwrap_err().kind(),
        RemoteErrorKind::NoSuchObject
    );
}

#[test]
fn dgc_frames_sweep_as_a_side_effect() {
    let rig = rig(Duration::from_secs(5));
    let a = spawn_child(&rig);
    let b = spawn_child(&rig);
    rig.clock.advance(Duration::from_secs(6));
    // No explicit sweep: a clean on `b` also reclaims the expired `a`.
    rig.conn.clean(&[b]).expect("clean");
    assert_eq!(
        rig.conn.call(a, "ping", vec![]).unwrap_err().kind(),
        RemoteErrorKind::NoSuchObject
    );
}

/// The paper-level claim: a BRMI batch traversing remote results creates
/// **zero** leases, while the equivalent RMI client creates one per hop
/// and must then renew or leak them.
#[test]
fn brmi_batches_create_no_dgc_pressure() {
    use brmi::policy::AbortPolicy;
    use brmi::{Batch, BatchExecutor};
    use brmi_apps::list::{BRemoteList, ListNode, RemoteListSkeleton, RemoteListStub};

    let server = RmiServer::new();
    let clock = VirtualClock::new();
    let dgc = server.enable_dgc(clock, DgcConfig::default());
    BatchExecutor::install(&server);
    let values: Vec<i32> = (0..6).collect();
    let id = server
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
        )
        .unwrap();
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    let head = conn.reference(id);

    // RMI: every hop exports a node and grants a lease.
    let mut current = RemoteListStub::new(head.clone());
    for _ in 0..4 {
        current = current.next().unwrap();
    }
    assert_eq!(dgc.stats().granted, 4, "one lease per RMI hop");

    // BRMI: the same traversal in a batch grants none.
    let before = dgc.stats().granted;
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let mut node = BRemoteList::new(&batch, &head);
    for _ in 0..4 {
        node = node.next();
    }
    let value = node.get_value();
    batch.flush().unwrap();
    assert_eq!(value.get().unwrap(), 4);
    assert_eq!(
        dgc.stats().granted,
        before,
        "identity preservation: nothing exported, nothing leased"
    );
}

#[test]
fn ablated_executor_recreates_the_rmi_pressure() {
    use brmi::policy::AbortPolicy;
    use brmi::{Batch, BatchExecutor};
    use brmi_apps::list::{BRemoteList, ListNode, RemoteListSkeleton};

    let server = RmiServer::new();
    let clock = VirtualClock::new();
    let dgc = server.enable_dgc(clock, DgcConfig::default());
    let executor = BatchExecutor::without_identity_preservation();
    executor.install_on(&server);
    let values: Vec<i32> = (0..6).collect();
    let id = server
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
        )
        .unwrap();
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    let head = conn.reference(id);

    let batch = Batch::new(conn, AbortPolicy);
    let mut node = BRemoteList::new(&batch, &head);
    for _ in 0..4 {
        node = node.next();
    }
    batch.flush().unwrap();
    assert_eq!(
        dgc.stats().granted,
        4,
        "without identity preservation the batch exports per hop like RMI"
    );
}
