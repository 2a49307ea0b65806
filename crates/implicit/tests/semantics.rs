//! Semantics of the implicit-batching runtime: delaying and batching must
//! never change what the program observes relative to plain RMI — the
//! correctness bar every implicit system in the paper's related work has
//! to clear.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use brmi::{remote_interface, BatchExecutor};
use brmi_implicit::ImplicitRuntime;
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::sim::SimTransport;
use brmi_transport::TransportStats;
use brmi_wire::{RemoteError, RemoteErrorKind};
use parking_lot::Mutex;

remote_interface! {
    /// A cell service: read, write, fail on demand, chain to a sibling.
    pub interface Cell {
        fn read() -> i32;
        fn write(v: i32);
        fn fail(exception: String) -> i32;
        fn sibling() -> remote Cell;
    }
}

struct TestCell {
    value: Mutex<i32>,
    executed: AtomicU32,
    sibling: Mutex<Option<Arc<TestCell>>>,
}

impl TestCell {
    fn new(value: i32) -> Arc<Self> {
        Arc::new(TestCell {
            value: Mutex::new(value),
            executed: AtomicU32::new(0),
            sibling: Mutex::new(None),
        })
    }
}

impl Cell for TestCell {
    fn read(&self) -> Result<i32, RemoteError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        Ok(*self.value.lock())
    }

    fn write(&self, v: i32) -> Result<(), RemoteError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        *self.value.lock() = v;
        Ok(())
    }

    fn fail(&self, exception: String) -> Result<i32, RemoteError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        Err(RemoteError::application(exception, "requested"))
    }

    fn sibling(&self) -> Result<Arc<dyn Cell>, RemoteError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.sibling
            .lock()
            .clone()
            .map(|cell| cell as Arc<dyn Cell>)
            .ok_or_else(|| RemoteError::application("NoSibling", "unset"))
    }
}

struct Rig {
    conn: Connection,
    root: RemoteRef,
    cell: Arc<TestCell>,
    stats: Arc<TransportStats>,
}

fn rig() -> Rig {
    let cell = TestCell::new(10);
    let other = TestCell::new(99);
    *cell.sibling.lock() = Some(other);
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let id = server
        .bind("cell", CellSkeleton::remote_arc(cell.clone()))
        .expect("bind");
    let transport = SimTransport::in_process(server.clone());
    let stats = transport.stats();
    let conn = Connection::new(Arc::new(transport));
    let root = conn.reference(id);
    Rig {
        conn,
        root,
        cell,
        stats,
    }
}

#[test]
fn demand_flushes_everything_delayed_so_far() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    let a = rt.lazy(cell.read());
    cell.write(42);
    let b = rt.lazy(cell.read());
    assert_eq!(rig.cell.executed.load(Ordering::Relaxed), 0, "all delayed");
    assert_eq!(rt.delayed_calls(), 3);

    assert_eq!(b.get().unwrap(), 42, "write was applied in order");
    assert_eq!(a.get().unwrap(), 10, "read before the write saw 10");
    assert_eq!(rt.round_trips(), 1);
    assert_eq!(rig.cell.executed.load(Ordering::Relaxed), 3);
}

#[test]
fn forcing_a_resolved_lazy_is_free() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    let a = rt.lazy(cell.read());
    assert_eq!(a.get().unwrap(), 10);
    rig.stats.reset();
    assert_eq!(a.get().unwrap(), 10);
    assert!(a.is_done());
    assert_eq!(rig.stats.requests(), 0, "no communication on re-demand");
}

#[test]
fn barrier_with_empty_queue_costs_nothing() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    rig.stats.reset();
    rt.barrier().unwrap();
    rt.barrier().unwrap();
    assert_eq!(rig.stats.requests(), 0);
    assert_eq!(rt.round_trips(), 0);
}

#[test]
fn failure_skips_later_delayed_calls_like_rmi_unwinding() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    let ok = rt.lazy(cell.read());
    let boom = rt.lazy(cell.fail("Boom".into()));
    cell.write(77); // delayed after the failure: must never run
    let after = rt.lazy(cell.read());

    assert_eq!(ok.get().unwrap(), 10);
    assert_eq!(boom.get().unwrap_err().exception(), "Boom");
    // Under RMI the exception would have unwound before write/read ran.
    let err = after.get().unwrap_err();
    assert_eq!(err.exception(), "Boom", "skipped with the abort cause");
    assert_eq!(*rig.cell.value.lock(), 10, "the write was not applied");
    assert_eq!(
        rig.cell.executed.load(Ordering::Relaxed),
        2,
        "read + fail executed; write and second read did not"
    );
}

#[test]
fn remote_results_chain_without_round_trips() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    rig.stats.reset();
    let sibling = cell.sibling();
    let value = rt.lazy(sibling.read());
    assert_eq!(rig.stats.requests(), 0, "chaining is free");
    assert_eq!(value.get().unwrap(), 99);
    assert_eq!(rig.stats.requests(), 1);
}

#[test]
fn work_after_a_forced_flush_reuses_the_session() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    let sibling = cell.sibling();
    let first = rt.lazy(sibling.read());
    assert_eq!(first.get().unwrap(), 99);

    // The sibling stub was created before the flush; calls on it after
    // the flush must still resolve (server kept the object alive).
    let second = rt.lazy(sibling.read());
    sibling.write(7);
    let third = rt.lazy(sibling.read());
    assert_eq!(second.get().unwrap(), 99);
    assert_eq!(third.get().unwrap(), 7);
    assert_eq!(rt.round_trips(), 2);
    rt.finish().unwrap();
}

#[test]
fn finish_is_idempotent_and_releases_the_session() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    let sibling = cell.sibling();
    let v = rt.lazy(sibling.read());
    assert_eq!(v.get().unwrap(), 99);
    rt.finish().unwrap();
    let trips = rt.round_trips();
    rt.finish().unwrap();
    assert_eq!(rt.round_trips(), trips, "second finish is a no-op");
}

#[test]
fn demanding_after_finish_reports_a_protocol_error() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    rt.finish().unwrap();
    let late = rt.lazy(cell.read());
    let err = late.get().unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Protocol);
}

#[test]
fn clones_share_the_delayed_queue() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let clone = rt.clone();
    let cell: BCell = rt.stub(&rig.root);
    let a = clone.lazy(cell.read());
    assert_eq!(clone.delayed_calls(), 1);
    assert_eq!(a.get().unwrap(), 10);
    assert_eq!(rt.round_trips(), 1);
    assert_eq!(clone.round_trips(), 1);
}

#[test]
fn debug_formats_are_nonempty() {
    let rig = rig();
    let rt = ImplicitRuntime::new(rig.conn.clone());
    let cell: BCell = rt.stub(&rig.root);
    let lazy = rt.lazy(cell.read());
    assert!(format!("{rt:?}").contains("ImplicitRuntime"));
    assert!(format!("{lazy:?}").contains("Lazy"));
}
