//! Pipelined flush (`flush_async`): flush without join, replies claimed on
//! first future touch, and the ordering contract — a chained flush issued
//! while a pipelined flush is still in flight must reach the server
//! *after* it, preserving recording order end to end.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use brmi::policy::AbortPolicy;
use brmi::{remote_interface, Batch, BatchExecutor};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::fault::{FaultPlan, FaultPoint, FaultyTransport};
use brmi_transport::retry::{RetryPolicy, RetryTransport};
use brmi_transport::sim::SimTransport;
use brmi_transport::Transport;
use brmi_wire::protocol::Frame;
use brmi_wire::{RemoteError, RemoteErrorKind};
use parking_lot::Mutex;

remote_interface! {
    /// An append-only journal: the order of appends is the observable
    /// server-side call order.
    pub interface Journal {
        /// Appends an entry; returns its index.
        fn append(entry: String) -> i32;
        /// Every entry so far, comma-joined.
        fn joined() -> String;
    }
}

#[derive(Default)]
struct JournalServer {
    log: Mutex<Vec<String>>,
}

impl Journal for JournalServer {
    fn append(&self, entry: String) -> Result<i32, RemoteError> {
        let mut log = self.log.lock();
        log.push(entry);
        Ok(log.len() as i32 - 1)
    }

    fn joined(&self) -> Result<String, RemoteError> {
        Ok(self.log.lock().join(","))
    }
}

struct Rig {
    executor: Arc<BatchExecutor>,
    conn: Connection,
    journal: Arc<JournalServer>,
    root: RemoteRef,
}

fn rig_over(wrap: impl FnOnce(Arc<SimTransport>) -> Arc<dyn Transport>) -> Rig {
    let server = RmiServer::new();
    let executor = BatchExecutor::install(&server);
    let journal = Arc::new(JournalServer::default());
    let id = server
        .bind("journal", JournalSkeleton::remote_arc(journal.clone()))
        .expect("fresh bind");
    let conn = Connection::new(wrap(Arc::new(SimTransport::in_process(server.clone()))));
    let root = conn.reference(id);
    Rig {
        executor,
        conn,
        journal,
        root,
    }
}

fn rig() -> Rig {
    rig_over(|t| t)
}

/// Delays the first batch frame it sees, so a pipelined flush is reliably
/// still in flight when the test issues the next one.
struct DelayFirstBatch {
    inner: Arc<SimTransport>,
    delayed: AtomicBool,
}

impl Transport for DelayFirstBatch {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        if matches!(frame, Frame::BatchCall(_)) && !self.delayed.swap(true, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(40));
        }
        self.inner.request(frame)
    }
}

#[test]
fn futures_claim_the_reply_on_first_touch() {
    let rig = rig();
    let batch = Batch::new(rig.conn.clone(), AbortPolicy);
    let journal = BJournal::new(&batch, &rig.root);
    let first = journal.append("a".into());
    let second = journal.append("b".into());
    let pending = batch.flush_async();
    // No join: the first future touch blocks until the in-flight round
    // trip lands, then yields the value.
    assert_eq!(first.get().unwrap(), 0);
    assert_eq!(second.get().unwrap(), 1);
    assert!(pending.is_done());
    pending.join().unwrap();
    assert_eq!(rig.journal.log.lock().as_slice(), ["a", "b"]);
}

#[test]
fn flush_async_finishes_recording_immediately() {
    let rig = rig();
    let batch = Batch::new(rig.conn.clone(), AbortPolicy);
    let journal = BJournal::new(&batch, &rig.root);
    let _ = journal.append("a".into());
    let pending = batch.flush_async();
    // Like `flush`, a plain pipelined flush ends the batch: recording
    // afterwards fails even though the reply may not have landed yet.
    let late = journal.append("too-late".into());
    assert_eq!(late.get().unwrap_err().kind(), RemoteErrorKind::Protocol);
    pending.join().unwrap();
    assert!(batch.is_finished());
    assert_eq!(rig.journal.log.lock().as_slice(), ["a"]);
}

/// The `flush_and_continue` ordering regression: a chained flush issued
/// while a pipelined flush is still on the wire must not overtake it.
#[test]
fn chained_flush_waits_for_inflight_pipelined_flush() {
    let rig = rig_over(|inner| {
        Arc::new(DelayFirstBatch {
            inner,
            delayed: AtomicBool::new(false),
        })
    });
    let batch = Batch::new(rig.conn.clone(), AbortPolicy);
    let journal = BJournal::new(&batch, &rig.root);

    let a1 = journal.append("a1".into());
    let a2 = journal.append("a2".into());
    // Segment A ships pipelined; its round trip is delayed 40 ms.
    let pending = batch.flush_and_continue_async();
    assert!(!pending.is_done(), "segment A should still be in flight");

    // Segment B records while A is on the wire, then flushes chained —
    // which must join A first (A also owns the session id B continues).
    let b1 = journal.append("b1".into());
    batch.flush_and_continue().unwrap();

    pending.join().unwrap();
    assert_eq!(
        rig.journal.joined().unwrap(),
        "a1,a2,b1",
        "server-side call order must match recording order"
    );
    assert_eq!(a1.get().unwrap(), 0);
    assert_eq!(a2.get().unwrap(), 1);
    assert_eq!(b1.get().unwrap(), 2);

    // Close the chain and release the session.
    batch.flush().unwrap();
    assert_eq!(rig.executor.session_count(), 0);
}

#[test]
fn two_pipelined_chained_segments_stay_ordered() {
    let rig = rig_over(|inner| {
        Arc::new(DelayFirstBatch {
            inner,
            delayed: AtomicBool::new(false),
        })
    });
    let batch = Batch::new(rig.conn.clone(), AbortPolicy);
    let journal = BJournal::new(&batch, &rig.root);

    let _ = journal.append("a".into());
    let first = batch.flush_and_continue_async();
    let _ = journal.append("b".into());
    let second = batch.flush_and_continue_async();
    first.join().unwrap();
    second.join().unwrap();
    assert_eq!(rig.journal.joined().unwrap(), "a,b");
    batch.flush().unwrap();
    assert_eq!(rig.executor.session_count(), 0);
}

#[test]
fn transport_failure_surfaces_at_join_and_on_futures() {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let journal = Arc::new(JournalServer::default());
    let id = server
        .bind("journal", JournalSkeleton::remote_arc(journal.clone()))
        .expect("fresh bind");
    let faulty = FaultyTransport::new(SimTransport::in_process(server.clone()), FaultPlan::Always);
    let conn = Connection::new(faulty as Arc<dyn Transport>);
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let journal_stub = BJournal::new(&batch, &conn.reference(id));

    let entry = journal_stub.append("lost".into());
    let pending = batch.flush_async();
    let err = pending.join().unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Transport);
    // The future re-throws the same communication error.
    assert_eq!(entry.get().unwrap_err().kind(), RemoteErrorKind::Transport);
    assert!(journal.log.lock().is_empty(), "nothing may have executed");
}

/// Crown-jewel delivery contract at the batch layer: a keyed connection
/// over a retry-wrapped faulty link re-sends a flush whose *reply* was
/// lost, and the origin's reply cache answers the duplicate instead of
/// appending the journal entries a second time.
#[test]
fn keyed_flush_survives_reply_loss_without_double_execution() {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let journal = Arc::new(JournalServer::default());
    let id = server
        .bind("journal", JournalSkeleton::remote_arc(journal.clone()))
        .expect("fresh bind");
    // The first round trip *executes* but its reply is dropped on the way
    // back — the worst case for a retry: blind re-send would double-append.
    let faulty = FaultyTransport::with_fault_point(
        SimTransport::in_process(server.clone()),
        FaultPlan::OnNth(1),
        FaultPoint::Reply,
    );
    let retried = RetryTransport::over(
        faulty.clone() as Arc<dyn Transport>,
        RetryPolicy::immediate(4),
    );
    let conn = Connection::new_keyed(retried as Arc<dyn Transport>);
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let stub = BJournal::new(&batch, &conn.reference(id));

    let a = stub.append("a".into());
    let b = stub.append("b".into());
    batch.flush().unwrap();

    assert_eq!(a.get().unwrap(), 0);
    assert_eq!(b.get().unwrap(), 1);
    assert_eq!(faulty.injected(), 1, "the first reply must have been lost");
    assert_eq!(
        rig_cache_counts(&server),
        (1, 1),
        "one execution, one replayed duplicate"
    );
    assert_eq!(
        journal.log.lock().as_slice(),
        ["a", "b"],
        "the segment executed exactly once"
    );
}

fn rig_cache_counts(server: &RmiServer) -> (u64, u64) {
    let cache = server.reply_cache();
    (cache.executions(), cache.replays())
}

#[test]
fn segment_after_failed_pipelined_flush_fails_cleanly() {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let journal = Arc::new(JournalServer::default());
    let id = server
        .bind("journal", JournalSkeleton::remote_arc(journal.clone()))
        .expect("fresh bind");
    // The first batch frame is dropped; anything after it must fail too,
    // never execute out of order.
    let faulty = FaultyTransport::new(
        SimTransport::in_process(server.clone()),
        FaultPlan::OnNth(1),
    );
    let conn = Connection::new(faulty as Arc<dyn Transport>);
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let stub = BJournal::new(&batch, &conn.reference(id));

    let a = stub.append("a".into());
    let first = batch.flush_and_continue_async();
    let b = stub.append("b".into());
    let second = batch.flush_and_continue_async();

    assert_eq!(first.join().unwrap_err().kind(), RemoteErrorKind::Transport);
    assert_eq!(second.join().unwrap_err().kind(), RemoteErrorKind::Protocol);
    assert!(a.get().is_err());
    assert!(b.get().is_err());
    assert!(journal.log.lock().is_empty());
}

/// Regression: claiming must be shareable. Many threads touching futures
/// of the same in-flight segment concurrently all block on the flush and
/// all see real results — no thread may observe a spurious "not flushed"
/// because another thread claimed first.
#[test]
fn concurrent_future_touches_all_claim_the_same_flush() {
    for _ in 0..20 {
        let rig = rig_over(|inner| {
            Arc::new(DelayFirstBatch {
                inner,
                delayed: AtomicBool::new(false),
            })
        });
        let batch = Batch::new(rig.conn.clone(), AbortPolicy);
        let journal = BJournal::new(&batch, &rig.root);
        let shared = journal.append("x".into());
        let _ = batch.flush_async();
        let toucher = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.get())
        };
        assert_eq!(shared.get().unwrap(), 0, "main-thread touch");
        assert_eq!(toucher.join().unwrap().unwrap(), 0, "concurrent touch");
    }
}

#[test]
fn empty_pipelined_flush_completes_ok() {
    let rig = rig();
    let batch = Batch::new(rig.conn.clone(), AbortPolicy);
    let pending = batch.flush_async();
    pending.join().unwrap();
    assert!(batch.is_finished());
}

#[test]
fn flush_async_after_flush_reports_already_executed() {
    let rig = rig();
    let batch = Batch::new(rig.conn.clone(), AbortPolicy);
    batch.flush().unwrap();
    let pending = batch.flush_async();
    assert_eq!(
        pending.join().unwrap_err().kind(),
        RemoteErrorKind::Protocol
    );
}
