//! The client half of explicit batching: invocation monitoring, `flush`
//! and result interpretation (paper Sections 4.1 and 4.3).
//!
//! A [`Batch`] owns the recording for one batch *chain*. Calls made through
//! [`BatchStub`]s and [`CursorHandle`]s are appended as
//! [`InvocationData`] descriptors; [`Batch::flush`] ships them in one round
//! trip, and [`Batch::flush_and_continue`] additionally keeps the
//! server-side object array alive so a later batch can reference earlier
//! results (Section 3.5).
//!
//! # Flush delivery semantics
//!
//! A flush travels with whatever delivery mode its [`Connection`] provides.
//! Over a plain connection the batch is sent as a `BatchCall` frame with
//! **at-most-once** delivery: if the transport fails mid-round-trip nothing
//! is re-sent (the origin may or may not have executed the segment) and the
//! failure surfaces through [`PendingFlush::join`] or the per-call futures.
//! Over a keyed connection ([`Connection::new_keyed`]) the same flush is
//! stamped with an idempotency key (the same `BatchCall` frame, its `key`
//! set), which retry-aware transports may transparently re-send after a reconnect — the
//! origin's reply cache guarantees the segment still executes **exactly
//! once**, with duplicates answered from the cached reply. `Batch` itself is
//! oblivious to the mode; keying and retries compose underneath
//! [`Connection::invoke_batch`].
//!
//! # Futures
//!
//! Every recorded call gets one future slot — a cheap placeholder the
//! reply fills once. Sequence numbers are dense from 0 within a chain and
//! each recorded call takes exactly one, so the slot table is a `Vec`
//! indexed by seq. A response naming a seq the batch never handed out is
//! ignored; nothing on this path is sized by a seq from the server.
//!
//! [`BatchStub`]: crate::stub::BatchStub
//! [`CursorHandle`]: crate::stub::CursorHandle
//! [`Connection::new_keyed`]: brmi_rmi::Connection::new_keyed

use std::collections::HashMap;
use std::sync::Arc;

use brmi_rmi::{Connection, RemoteRef};
use brmi_wire::invocation::{
    Arg, BatchRequest, BatchResponse, CallSeq, InvocationData, PolicySpec, SessionId, SlotOutcome,
    Target,
};
use brmi_wire::{RemoteError, RemoteErrorKind, Value};
use parking_lot::Mutex;

use crate::future::{FlushGate, FutureSlot};
use crate::stats::BatchStats;
use crate::stub::{BatchStub, CursorHandle, RecordArg, StubKind};

/// Phase of a batch chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Calls are being recorded (possibly after chained flushes).
    Recording,
    /// A plain `flush` completed (or failed); no more recording.
    Finished,
}

/// Client-side state of one cursor.
#[derive(Debug)]
pub(crate) struct CursorState {
    /// Member call seqs recorded into the cursor's sub-batch, in order.
    members: Vec<u32>,
    /// True once a non-member call ended the sub-batch (contiguity rule,
    /// paper Section 4.1).
    closed: bool,
    /// Set when the creating batch was flushed.
    flushed: Option<FlushedCursor>,
}

#[derive(Debug)]
struct FlushedCursor {
    len: u32,
    members: Vec<u32>,
    rows: Vec<Vec<SlotOutcome>>,
    /// Current iteration position; `None` before the first `next()`.
    pos: Option<u32>,
}

struct BatchInner {
    conn: Connection,
    policy: PolicySpec,
    phase: Phase,
    /// Set on a recording error (foreign stub, cursor misuse). The next
    /// flush reports it instead of contacting the server.
    poisoned: Option<RemoteError>,
    next_seq: u32,
    pending: Vec<InvocationData>,
    /// One slot per recorded call, indexed by its seq: seqs are dense from
    /// 0 and `record` pushes exactly one slot per seq it hands out.
    slots: Vec<Arc<FutureSlot>>,
    cursors: HashMap<u32, CursorState>,
    session: Option<SessionId>,
    /// The most recent pipelined flush still (possibly) in flight. A later
    /// flush — pipelined or not — joins it first, so segments reach the
    /// server in recording order.
    inflight: Option<Arc<FlushGate>>,
    stats: BatchStats,
}

impl BatchInner {
    /// The slot of call `seq`; `None` for a seq this batch never handed
    /// out (a hostile or confused server may name any seq).
    fn slot(&self, seq: u32) -> Option<&Arc<FutureSlot>> {
        self.slots.get(seq as usize)
    }

    fn poison(&mut self, err: RemoteError) {
        if self.poisoned.is_none() && self.phase == Phase::Recording {
            self.poisoned = Some(err);
        }
    }
}

impl Drop for BatchInner {
    fn drop(&mut self) {
        // Best-effort release of a live chained-batch session.
        if let Some(session) = self.session.take() {
            let _ = self.conn.release_session(session);
        }
    }
}

/// A batch of remote calls under construction (or being chained).
///
/// Cheap to clone; clones share state. The paper's one-batch-at-a-time rule
/// (Section 4.5) is enforced structurally: all recording goes through one
/// internal lock, and concurrent batching requires separate `Batch` values,
/// just as concurrent BRMI clients need separate stubs.
#[derive(Clone)]
pub struct Batch {
    inner: Arc<Mutex<BatchInner>>,
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Batch")
            .field("phase", &inner.phase)
            .field("pending_calls", &inner.pending.len())
            .field("session", &inner.session)
            .finish_non_exhaustive()
    }
}

/// Handle to a pipelined flush started by [`Batch::flush_async`] or
/// [`Batch::flush_and_continue_async`].
///
/// The round trip runs on a worker thread. Joining is optional: touching
/// any future of the shipped segment claims the reply too, and dropping
/// the handle never cancels the flush.
pub struct PendingFlush {
    gate: Arc<FlushGate>,
}

impl PendingFlush {
    /// Waits for the flush to complete and returns its outcome — exactly
    /// what the equivalent synchronous [`Batch::flush`] call would have
    /// returned.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures of the shipped segment, or the
    /// recording error that poisoned it.
    pub fn join(&self) -> Result<(), RemoteError> {
        self.gate.wait()
    }

    /// True once the flush has completed (successfully or not), without
    /// blocking.
    pub fn is_done(&self) -> bool {
        self.gate.try_result().is_some()
    }
}

impl std::fmt::Debug for PendingFlush {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingFlush")
            .field("done", &self.is_done())
            .finish()
    }
}

/// Result of recording one call.
pub(crate) struct Recorded {
    pub(crate) seq: u32,
    pub(crate) slot: Arc<FutureSlot>,
}

/// The receiver of a recorded call.
pub(crate) enum Receiver<'a> {
    Stub(&'a BatchStub),
    Cursor(&'a CursorHandle),
}

impl Batch {
    /// Creates a batch over `conn` with the given exception policy.
    ///
    /// This is the analogue of `BRMI.create(iface, remoteObj, policy)`; the
    /// typed root stub is obtained with [`Batch::wrap`] (or the generated
    /// `BFoo::new`).
    pub fn new(conn: Connection, policy: impl Into<PolicySpec>) -> Self {
        Batch {
            inner: Arc::new(Mutex::new(BatchInner {
                conn,
                policy: policy.into(),
                phase: Phase::Recording,
                poisoned: None,
                next_seq: 0,
                pending: Vec::new(),
                slots: Vec::new(),
                cursors: HashMap::new(),
                session: None,
                inflight: None,
                stats: BatchStats::default(),
            })),
        }
    }

    /// Wraps a remote reference as an untyped root batch stub.
    pub fn wrap(&self, reference: &RemoteRef) -> BatchStub {
        BatchStub::new_root(self.clone(), reference.id())
    }

    /// Executes the batch: one round trip, then all futures hold values.
    /// The batch is finished afterwards; recording further calls fails.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures (the paper notes all communication
    /// errors surface here, Section 3.3), or a recording error that
    /// poisoned the batch. Per-call application exceptions are *not*
    /// reported here — they re-throw from `Future::get`/`ok()`.
    pub fn flush(&self) -> Result<(), RemoteError> {
        self.do_flush(false)
    }

    /// Executes the batch but keeps the server context alive so the chain
    /// can continue (paper Section 3.5).
    ///
    /// # Errors
    ///
    /// As for [`Batch::flush`].
    pub fn flush_and_continue(&self) -> Result<(), RemoteError> {
        self.do_flush(true)
    }

    /// Ships the batch without waiting for the reply — the *pipelined*
    /// flush. The round trip runs on a worker thread; the returned handle
    /// joins it explicitly, and any of the batch's futures claims the
    /// reply implicitly on first touch (`get`/`ok`). The batch is finished
    /// for recording immediately, exactly like [`Batch::flush`].
    ///
    /// Transport and recording errors surface at
    /// [`PendingFlush::join`] (and re-throw from the covered futures), not
    /// here — communication failures still surface "at flush", just at the
    /// point the flush is observed.
    #[must_use = "the flush outcome surfaces at join() or on the futures"]
    pub fn flush_async(&self) -> PendingFlush {
        self.do_flush_async(false)
    }

    /// Pipelined variant of [`Batch::flush_and_continue`]: ships the
    /// current segment without waiting and keeps the chain open, so the
    /// client can record (and even flush) the next segment while this one
    /// is on the wire. A subsequent flush — pipelined or not — joins every
    /// in-flight predecessor before sending, so segments reach the server
    /// in recording order.
    #[must_use = "the flush outcome surfaces at join() or on the futures"]
    pub fn flush_and_continue_async(&self) -> PendingFlush {
        self.do_flush_async(true)
    }

    /// Counters for this batch chain.
    pub fn stats(&self) -> BatchStats {
        self.inner.lock().stats
    }

    /// True once a plain `flush` has completed (or failed).
    pub fn is_finished(&self) -> bool {
        self.inner.lock().phase == Phase::Finished
    }

    /// The live chained-batch session id, if any (introspection for tests).
    pub fn session(&self) -> Option<SessionId> {
        self.inner.lock().session
    }

    pub(crate) fn ptr_eq(&self, other: &Batch) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Records one call. Never panics: validation failures pre-fail the
    /// returned slot and poison the batch so `flush` reports them.
    pub(crate) fn record(
        &self,
        on: Receiver<'_>,
        method: &str,
        args: Vec<RecordArg>,
        opens_cursor: bool,
    ) -> Recorded {
        let slot = FutureSlot::new();
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.stats.calls_recorded += 1;

        // Every recorded call registers its slot, including ones that
        // fail during recording — `ok()` checks and failure scans
        // (`first_failure_from`) must see those too, and the stats
        // counter stays in lockstep with the sequence numbers. That
        // lockstep is what lets the slot table be indexed by seq.
        debug_assert_eq!(inner.slots.len(), seq as usize);
        inner.slots.push(Arc::clone(&slot));

        // Helper to fail this call (and usually the whole batch).
        macro_rules! fail {
            ($err:expr) => {{
                let err: RemoteError = $err;
                slot.set_failed(err.clone());
                inner.poison(err);
                return Recorded { seq, slot };
            }};
        }

        if let Some(poison) = inner.poisoned.clone() {
            slot.set_failed(poison);
            return Recorded { seq, slot };
        }
        if inner.phase == Phase::Finished {
            // Not a poison: the batch already ran to completion.
            slot.set_failed(RemoteError::new(
                RemoteErrorKind::Protocol,
                "batch already executed; create a new batch",
            ));
            return Recorded { seq, slot };
        }

        // Resolve the receiver into a wire target plus the cursor context
        // it implies.
        let (target, mut ctx) = match on {
            Receiver::Stub(stub) => {
                if !stub.batch().ptr_eq(self) {
                    fail!(foreign_stub());
                }
                match stub.kind() {
                    StubKind::Remote(id) => (Target::Remote(id), None),
                    StubKind::Call {
                        seq: origin,
                        cursor_of: None,
                    } => (Target::Result(CallSeq(origin)), None),
                    StubKind::Call {
                        seq: origin,
                        cursor_of: Some(cursor),
                    } => match cursor_position(&inner, cursor) {
                        CursorPhase::Recording => (Target::Result(CallSeq(origin)), Some(cursor)),
                        CursorPhase::Iterating(pos) => {
                            (Target::CursorElement(CallSeq(origin), pos), None)
                        }
                        CursorPhase::Unpositioned => fail!(unpositioned_cursor()),
                    },
                }
            }
            Receiver::Cursor(handle) => {
                if !handle.batch().ptr_eq(self) {
                    fail!(foreign_stub());
                }
                let cursor = handle.seq();
                match cursor_position(&inner, cursor) {
                    CursorPhase::Recording => (Target::Result(CallSeq(cursor)), Some(cursor)),
                    CursorPhase::Iterating(pos) => {
                        (Target::CursorElement(CallSeq(cursor), pos), None)
                    }
                    CursorPhase::Unpositioned => fail!(unpositioned_cursor()),
                }
            }
        };

        // Convert arguments, merging any cursor context they imply.
        let mut wire_args = Vec::with_capacity(args.len());
        for arg in args {
            let converted = match arg {
                RecordArg::Value(value) => Arg::Value(value),
                RecordArg::Stub(stub) => {
                    if !stub.batch().ptr_eq(self) {
                        fail!(foreign_stub());
                    }
                    match stub.kind() {
                        StubKind::Remote(id) => Arg::Value(Value::RemoteRef(id)),
                        StubKind::Call {
                            seq: origin,
                            cursor_of: None,
                        } => Arg::Result(CallSeq(origin)),
                        StubKind::Call {
                            seq: origin,
                            cursor_of: Some(cursor),
                        } => match cursor_position(&inner, cursor) {
                            CursorPhase::Recording => match merge_ctx(&mut ctx, cursor) {
                                Ok(()) => Arg::Result(CallSeq(origin)),
                                Err(err) => fail!(err),
                            },
                            CursorPhase::Iterating(pos) => Arg::CursorElement(CallSeq(origin), pos),
                            CursorPhase::Unpositioned => fail!(unpositioned_cursor()),
                        },
                    }
                }
                RecordArg::Cursor(handle) => {
                    if !handle.batch().ptr_eq(self) {
                        fail!(foreign_stub());
                    }
                    let cursor = handle.seq();
                    match cursor_position(&inner, cursor) {
                        CursorPhase::Recording => match merge_ctx(&mut ctx, cursor) {
                            Ok(()) => Arg::Result(CallSeq(cursor)),
                            Err(err) => fail!(err),
                        },
                        CursorPhase::Iterating(pos) => Arg::CursorElement(CallSeq(cursor), pos),
                        CursorPhase::Unpositioned => fail!(unpositioned_cursor()),
                    }
                }
            };
            wire_args.push(converted);
        }

        if opens_cursor && ctx.is_some() {
            fail!(RemoteError::new(
                RemoteErrorKind::Protocol,
                "nested cursors are not supported",
            ));
        }

        // Contiguity (paper Section 4.1): a cursor's sub-batch must not
        // resume after unrelated calls were recorded.
        if let Some(cursor) = ctx {
            match inner.cursors.get(&cursor) {
                Some(state) if state.closed => fail!(RemoteError::new(
                    RemoteErrorKind::Protocol,
                    "cursor operations must be contiguous within the batch",
                )),
                Some(_) => {}
                None => fail!(RemoteError::new(
                    RemoteErrorKind::Protocol,
                    "cursor does not belong to this batch segment",
                )),
            }
        }
        for (other, state) in inner.cursors.iter_mut() {
            if Some(*other) != ctx && state.flushed.is_none() && !state.members.is_empty() {
                state.closed = true;
            }
        }
        if let Some(cursor) = ctx {
            if let Some(state) = inner.cursors.get_mut(&cursor) {
                state.members.push(seq);
            }
        }

        if opens_cursor {
            inner.cursors.insert(
                seq,
                CursorState {
                    members: Vec::new(),
                    closed: false,
                    flushed: None,
                },
            );
            inner.stats.cursors_created += 1;
        }

        inner.pending.push(InvocationData {
            seq: CallSeq(seq),
            target,
            method: method.to_owned(),
            args: wire_args,
            cursor: ctx.map(CallSeq),
            opens_cursor,
        });
        Recorded { seq, slot }
    }

    /// Looks up the slot behind a call (for `ok()` checks).
    pub(crate) fn slot_of(&self, seq: u32) -> Option<Arc<FutureSlot>> {
        self.inner.lock().slot(seq).cloned()
    }

    /// The earliest failure among calls recorded at or after position
    /// `start` (in recording order), if any.
    ///
    /// Support for runtimes layered over explicit batching — an implicit
    /// batcher uses this after each flush to detect that the segment it
    /// just shipped aborted, so it can stop speculating (see the
    /// `brmi-implicit` crate). Calls not yet flushed are `Pending`, not
    /// failed, and are never reported here.
    pub fn first_failure_from(&self, start: u32) -> Option<RemoteError> {
        let inner = self.inner.lock();
        inner
            .slots
            .get(start as usize..)
            .unwrap_or_default()
            .iter()
            .find_map(|slot| slot.check_failed().err())
    }

    /// Discards every recorded-but-unflushed call, failing its futures
    /// (and dependent stubs) with `reason`. The batch stays usable: the
    /// session, previously flushed results and the recording phase are
    /// untouched.
    ///
    /// Used by layered runtimes to drop calls that were recorded
    /// speculatively after a failure the program had not yet observed
    /// (RMI would have unwound before issuing them). Returns the number
    /// of discarded calls.
    pub fn discard_pending(&self, reason: &RemoteError) -> usize {
        let mut inner = self.inner.lock();
        let pending = std::mem::take(&mut inner.pending);
        let discarded = pending.len();
        for call in &pending {
            if let Some(slot) = inner.slot(call.seq.0) {
                slot.set_failed(reason.clone());
            }
        }
        // A cursor opened by a discarded call never reaches the server;
        // mark its member bookkeeping closed so later (mis)use of the
        // cursor is reported instead of silently re-recorded.
        for call in &pending {
            if call.opens_cursor {
                if let Some(state) = inner.cursors.get_mut(&call.seq.0) {
                    state.closed = true;
                }
            }
        }
        discarded
    }

    /// Advances a flushed cursor to its next element, repopulating member
    /// futures. Returns false when exhausted or not flushed.
    pub(crate) fn cursor_next(&self, cursor: u32) -> bool {
        let mut inner = self.inner.lock();
        let assignments: Vec<(u32, SlotOutcome)> = {
            let Some(state) = inner.cursors.get_mut(&cursor) else {
                return false;
            };
            let Some(flushed) = state.flushed.as_mut() else {
                return false;
            };
            let next = flushed.pos.map_or(0, |p| p.saturating_add(1));
            if next >= flushed.len {
                flushed.pos = Some(flushed.len);
                return false;
            }
            flushed.pos = Some(next);
            let row = &flushed.rows[next as usize];
            flushed
                .members
                .iter()
                .copied()
                .zip(row.iter().cloned())
                .collect()
        };
        for (member, outcome) in assignments {
            if let Some(slot) = inner.slot(member) {
                apply_outcome(slot, outcome);
            }
        }
        true
    }

    /// Number of elements in a flushed cursor.
    pub(crate) fn cursor_len(&self, cursor: u32) -> Option<u32> {
        self.inner
            .lock()
            .cursors
            .get(&cursor)
            .and_then(|state| state.flushed.as_ref())
            .map(|flushed| flushed.len)
    }

    fn do_flush(&self, keep: bool) -> Result<(), RemoteError> {
        self.join_inflight();
        let (request, seqs, conn) = match self.prepare_flush(keep)? {
            Some(prepared) => prepared,
            None => return Ok(()),
        };
        let result = conn.invoke_batch(request);
        self.apply_flush(&seqs, keep, result)
    }

    /// Ships one segment on a worker thread. The returned handle (and the
    /// flush gates attached to the segment's slots) complete after the
    /// response has been applied.
    fn do_flush_async(&self, keep: bool) -> PendingFlush {
        let gate = FlushGate::new();
        let (calls, prev) = {
            let mut inner = self.inner.lock();
            if let Some(poison) = inner.poisoned.take() {
                Batch::fail_pending_locked(&mut inner, &poison);
                inner.phase = Phase::Finished;
                if let Some(session) = inner.session.take() {
                    let _ = inner.conn.release_session(session);
                }
                gate.complete(Err(poison));
                return PendingFlush { gate };
            }
            if inner.phase == Phase::Finished {
                gate.complete(Err(already_executed()));
                return PendingFlush { gate };
            }
            let calls = std::mem::take(&mut inner.pending);
            // Every covered future can claim this flush on first touch.
            for call in &calls {
                if let Some(slot) = inner.slot(call.seq.0) {
                    slot.attach_flush(Arc::clone(&gate));
                }
            }
            let prev = inner.inflight.replace(Arc::clone(&gate));
            if !keep {
                // Recording is over immediately, exactly like `flush`; the
                // reply just hasn't been claimed yet.
                inner.phase = Phase::Finished;
            }
            (calls, prev)
        };

        // The job is shared with the worker closure (instead of moved into
        // it) so a failed spawn can still run the very same flush inline —
        // the segment's calls must not be lost with the dropped closure.
        let job = Arc::new(Mutex::new(Some((calls, prev))));
        let batch = self.clone();
        let worker_gate = Arc::clone(&gate);
        let worker_job = Arc::clone(&job);
        // One detached worker per in-flight segment; the gate (not the
        // join handle) is the completion primitive.
        let spawned = std::thread::Builder::new()
            .name("brmi-flush".into())
            .spawn(move || {
                if let Some((calls, prev)) = worker_job.lock().take() {
                    batch.run_async_flush(calls, prev, keep, worker_gate);
                }
            });
        if spawned.is_err() {
            // Could not spawn: degrade to a synchronous flush on this
            // thread so the handle still resolves.
            if let Some((calls, prev)) = job.lock().take() {
                self.run_async_flush(calls, prev, keep, Arc::clone(&gate));
            }
        }
        PendingFlush { gate }
    }

    /// Worker half of a pipelined flush.
    fn run_async_flush(
        &self,
        calls: Vec<InvocationData>,
        prev: Option<Arc<FlushGate>>,
        keep: bool,
        gate: Arc<FlushGate>,
    ) {
        // Preserve segment order: the previous in-flight flush must be on
        // the server before this one is sent (it may also establish the
        // session id this segment continues).
        if let Some(prev) = prev {
            if prev.wait().is_err() {
                // The chain is broken; this segment fails the way a sync
                // flush after a failed flush would.
                let err = already_executed();
                let inner = self.inner.lock();
                for call in &calls {
                    if let Some(slot) = inner.slot(call.seq.0) {
                        slot.set_failed(err.clone());
                    }
                }
                drop(inner);
                gate.complete(Err(err));
                return;
            }
        }
        let (request, seqs, conn) = {
            let mut inner = self.inner.lock();
            if calls.is_empty() && inner.session.is_none() {
                if !keep {
                    inner.phase = Phase::Finished;
                }
                drop(inner);
                gate.complete(Ok(()));
                return;
            }
            let seqs: Vec<u32> = calls.iter().map(|c| c.seq.0).collect();
            let request = BatchRequest {
                session: inner.session,
                calls,
                policy: inner.policy.clone(),
                keep_session: keep,
            };
            (request, seqs, inner.conn.clone())
        };
        let result = conn.invoke_batch(request);
        gate.complete(self.apply_flush(&seqs, keep, result));
    }

    /// Blocks until every in-flight pipelined flush has completed.
    fn join_inflight(&self) {
        loop {
            let gate = self.inner.lock().inflight.take();
            match gate {
                Some(gate) => {
                    let _ = gate.wait();
                }
                None => return,
            }
        }
    }

    /// Fails every recorded-but-unflushed call with `err` (lock held).
    fn fail_pending_locked(inner: &mut BatchInner, err: &RemoteError) {
        for call in inner.pending.drain(..) {
            if let Some(slot) = inner.slots.get(call.seq.0 as usize) {
                slot.set_failed(err.clone());
            }
        }
    }

    /// First half of a flush: validates the phase and takes the pending
    /// segment off the batch. Returns `None` when there is nothing to send.
    #[allow(clippy::type_complexity)]
    fn prepare_flush(
        &self,
        keep: bool,
    ) -> Result<Option<(BatchRequest, Vec<u32>, Connection)>, RemoteError> {
        let mut inner = self.inner.lock();
        if let Some(poison) = inner.poisoned.take() {
            Batch::fail_pending_locked(&mut inner, &poison);
            inner.phase = Phase::Finished;
            if let Some(session) = inner.session.take() {
                let _ = inner.conn.release_session(session);
            }
            return Err(poison);
        }
        if inner.phase == Phase::Finished {
            return Err(already_executed());
        }

        let calls = std::mem::take(&mut inner.pending);
        if calls.is_empty() && inner.session.is_none() {
            if !keep {
                inner.phase = Phase::Finished;
            }
            return Ok(None);
        }
        let seqs: Vec<u32> = calls.iter().map(|c| c.seq.0).collect();
        let request = BatchRequest {
            session: inner.session,
            calls,
            policy: inner.policy.clone(),
            keep_session: keep,
        };
        Ok(Some((request, seqs, inner.conn.clone())))
    }

    /// Second half of a flush: applies the server's response (or the
    /// transport failure) to the segment's slots and the chain state.
    fn apply_flush(
        &self,
        seqs: &[u32],
        keep: bool,
        result: Result<BatchResponse, RemoteError>,
    ) -> Result<(), RemoteError> {
        let mut inner = self.inner.lock();
        let response = match result {
            Ok(response) => response,
            Err(err) => {
                // All communication errors surface at flush (Section 3.3):
                // the futures of this segment fail with the same error.
                for seq in seqs {
                    if let Some(slot) = inner.slot(*seq) {
                        slot.set_failed(err.clone());
                    }
                }
                inner.phase = Phase::Finished;
                inner.session = None;
                return Err(err);
            }
        };

        inner.stats.flushes += 1;
        if keep {
            inner.stats.chained_flushes += 1;
        }
        inner.stats.server_restarts += u64::from(response.restarts);

        // Response seqs are untrusted: one this batch never handed out is
        // ignored, and nothing is sized by a seq the server sent.
        let mut responded = vec![false; inner.slots.len()];
        for (seq, outcome) in response.slots {
            let Some(slot) = inner.slot(seq.0) else {
                continue;
            };
            if matches!(outcome, SlotOutcome::InCursor) {
                // Populated by next() — but only a cursor member has a
                // cursor to be populated by.
                if is_cursor_member(&inner, seq.0) {
                    responded[seq.0 as usize] = true;
                }
                continue;
            }
            responded[seq.0 as usize] = true;
            apply_outcome(slot, outcome);
        }
        for &seq in seqs {
            if !responded.get(seq as usize).copied().unwrap_or(false) {
                if let Some(slot) = inner.slot(seq) {
                    slot.set_failed(RemoteError::new(
                        RemoteErrorKind::Protocol,
                        format!("server response missing result for call {seq}"),
                    ));
                }
            }
        }

        for cursor in response.cursors {
            if let Some(state) = inner.cursors.get_mut(&cursor.cursor_seq.0) {
                state.flushed = Some(FlushedCursor {
                    len: cursor.len,
                    members: cursor.members.iter().map(|m| m.0).collect(),
                    rows: cursor.rows,
                    pos: None,
                });
            }
        }
        // A cursor whose creating call failed has no results: its member
        // futures re-throw the creation error (dependency rule, §3.3).
        // `check_applied` (not the claiming `check`) — this runs inside
        // the flush being applied, whose own gate completes only after we
        // return; claiming here would wait on it and self-deadlock.
        let mut failed_members: Vec<(u32, RemoteError)> = Vec::new();
        for (cursor_seq, state) in &inner.cursors {
            if state.flushed.is_none() && !state.members.is_empty() {
                if let Some(slot) = inner.slot(*cursor_seq) {
                    if let Err(err) = slot.check_applied() {
                        for member in &state.members {
                            failed_members.push((*member, err.clone()));
                        }
                    }
                }
            }
        }
        for (member, err) in failed_members {
            if let Some(slot) = inner.slot(member) {
                slot.set_failed(err);
            }
        }

        inner.session = response.session;
        if !keep {
            inner.phase = Phase::Finished;
            if let Some(session) = inner.session.take() {
                // A conforming server never returns a session here; release
                // defensively if one does.
                let _ = inner.conn.release_session(session);
            }
        }
        Ok(())
    }
}

enum CursorPhase {
    /// The creating batch segment has not been flushed yet.
    Recording,
    /// Flushed and positioned on an element.
    Iterating(u32),
    /// Flushed but `next()` has not been called (or the cursor is
    /// exhausted).
    Unpositioned,
}

fn cursor_position(inner: &BatchInner, cursor: u32) -> CursorPhase {
    match inner.cursors.get(&cursor).and_then(|s| s.flushed.as_ref()) {
        None => CursorPhase::Recording,
        Some(flushed) => match flushed.pos {
            Some(pos) if pos < flushed.len => CursorPhase::Iterating(pos),
            _ => CursorPhase::Unpositioned,
        },
    }
}

/// True when call `seq` was recorded into some cursor's sub-batch.
fn is_cursor_member(inner: &BatchInner, seq: u32) -> bool {
    // `members` are pushed in recording order, so each list is sorted.
    inner
        .cursors
        .values()
        .any(|state| state.members.binary_search(&seq).is_ok())
}

fn merge_ctx(ctx: &mut Option<u32>, cursor: u32) -> Result<(), RemoteError> {
    match ctx {
        None => {
            *ctx = Some(cursor);
            Ok(())
        }
        Some(existing) if *existing == cursor => Ok(()),
        Some(_) => Err(RemoteError::new(
            RemoteErrorKind::Protocol,
            "one call cannot involve two different cursors",
        )),
    }
}

fn apply_outcome(slot: &FutureSlot, outcome: SlotOutcome) {
    match outcome {
        SlotOutcome::Ok(value) => slot.set_ready(value),
        SlotOutcome::Err(env) | SlotOutcome::Skipped(env) => {
            slot.set_failed(RemoteError::from(&env));
        }
        SlotOutcome::InCursor => {}
    }
}

fn already_executed() -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::Protocol,
        "batch already executed; create a new batch",
    )
}

fn foreign_stub() -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::Protocol,
        "stub was created within a different batch chain",
    )
}

fn unpositioned_cursor() -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::Protocol,
        "cursor is not positioned on an element; call next() first",
    )
}
