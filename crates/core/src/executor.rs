//! The server half of explicit batching: `invoke_batch` (paper Figure 2).
//!
//! The executor replays recorded calls in order, wiring remote results of
//! earlier calls into the targets and arguments of later ones through a
//! server-local object array — which is precisely how BRMI preserves remote
//! reference identity and avoids marshalling (Section 4.4). Cursors run
//! their sub-batch once per array element (Section 3.4); exception policies
//! decide whether a throwing call breaks, continues, repeats or restarts
//! the batch (Section 3.3); and `flush_and_continue` sessions keep the
//! object array alive between chained batches (Section 3.5).
//!
//! A call's arguments reach its invoke as the borrowed views the request
//! decode built, resolved into one buffer that every call of the run
//! reuses. The invoke only borrows them, so a `Repeat` attempt lends the
//! same slice again and every attempt sees identical arguments.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use brmi_obs::{Counter, MetricsSnapshot, Registry, Snapshot};
use brmi_rmi::{BatchFrameHandler, CallCtx, InArg, OutValue, RemoteObject, RmiServer};
use brmi_wire::invocation::{
    ArgRef, BatchRequestRef, BatchResponse, CallSeq, CursorResult, ErrorEnvelope, ExceptionAction,
    InvocationDataRef, PolicySpec, SessionId, SlotOutcome, Target,
};
use brmi_wire::{RemoteError, RemoteErrorKind, Value, ValueRef};
use parking_lot::Mutex;

/// Objects pinned alive between chained batches: remote results by call
/// seq, plus per-element object columns for cursors and their
/// remote-returning members.
#[derive(Default, Clone)]
struct SessionState {
    objects: HashMap<u32, Arc<dyn RemoteObject>>,
    cursor_objects: HashMap<u32, Vec<Option<Arc<dyn RemoteObject>>>>,
}

/// Cumulative counters of server-side batch activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Batches executed (including restart re-runs).
    pub batches: u64,
    /// Calls replayed (cursor members counted once per element).
    pub calls_replayed: u64,
    /// Replayed calls whose skeleton metadata marks them `#[read_only]`
    /// (see [`MethodMeta`](brmi_wire::MethodMeta)) — the executor-side
    /// view of how much of the workload the relay's read cache could
    /// absorb.
    pub read_calls_replayed: u64,
    /// Total cursor elements iterated server-side.
    pub cursor_elements: u64,
}

/// The executor's live metric cells (the `ExecutorStats`-shaped
/// [`BatchExecutor::stats`] accessor is a thin copy of these). Registered
/// under the `executor_*` families — `executor_executions` for batches,
/// `executor_replays` for replayed calls — by
/// [`BatchExecutor::register_metrics`].
#[derive(Debug, Default)]
struct StatsCells {
    batches: Counter,
    calls_replayed: Counter,
    read_calls_replayed: Counter,
    cursor_elements: Counter,
}

/// Server-side batch executor; install on an [`RmiServer`] with
/// [`BatchExecutor::install`].
pub struct BatchExecutor {
    sessions: Mutex<HashMap<u64, SessionState>>,
    next_session: AtomicU64,
    stats: StatsCells,
    max_repeats: u32,
    max_restarts: u32,
    /// Ablation switch: when true, remote results of batched calls are
    /// *also* exported and returned as references, as plain RMI would —
    /// disabling the paper's identity-preservation optimization
    /// (Section 4.4) while keeping batching itself. Used by the ablation
    /// benchmarks to isolate the two effects.
    export_remote_results: bool,
}

impl Default for BatchExecutor {
    fn default() -> Self {
        BatchExecutor {
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            stats: StatsCells::default(),
            max_repeats: 3,
            max_restarts: 3,
            export_remote_results: false,
        }
    }
}

impl std::fmt::Debug for BatchExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExecutor")
            .field("live_sessions", &self.session_count())
            .field("max_repeats", &self.max_repeats)
            .field("max_restarts", &self.max_restarts)
            .finish()
    }
}

impl BatchExecutor {
    /// Creates an executor with the default retry bounds
    /// (3 repeats per call, 3 restarts per batch).
    pub fn new() -> Arc<Self> {
        Arc::new(BatchExecutor::default())
    }

    /// Creates an executor with explicit `Repeat`/`Restart` bounds.
    pub fn with_limits(max_repeats: u32, max_restarts: u32) -> Arc<Self> {
        Arc::new(BatchExecutor {
            max_repeats,
            max_restarts,
            ..BatchExecutor::default()
        })
    }

    /// Creates an ablation executor that exports remote results like RMI
    /// instead of keeping them server-local (see the struct docs).
    pub fn without_identity_preservation() -> Arc<Self> {
        Arc::new(BatchExecutor {
            export_remote_results: true,
            ..BatchExecutor::default()
        })
    }

    /// Installs this executor on a server (for non-default constructors).
    pub fn install_on(self: &Arc<Self>, server: &Arc<RmiServer>) {
        server.set_batch_handler(Arc::clone(self) as Arc<dyn BatchFrameHandler>);
    }

    /// Creates an executor and installs it as `server`'s batch handler —
    /// the analogue of `UnicastRemoteObject` gaining `invokeBatch`, making
    /// every exported object batch-invocable without application changes.
    pub fn install(server: &Arc<RmiServer>) -> Arc<Self> {
        let executor = BatchExecutor::new();
        server.set_batch_handler(Arc::clone(&executor) as Arc<dyn BatchFrameHandler>);
        executor
    }

    /// Number of live chained-batch sessions (test introspection).
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Snapshot of the cumulative execution counters.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            batches: self.stats.batches.value(),
            calls_replayed: self.stats.calls_replayed.value(),
            read_calls_replayed: self.stats.read_calls_replayed.value(),
            cursor_elements: self.stats.cursor_elements.value(),
        }
    }

    /// Registers the executor's metric cells with `registry` under the
    /// `executor_*` families (unified naming: batch executions are
    /// `executor_executions`, replayed calls are `executor_replays`, with
    /// the read-only subset labeled `kind="read_only"`).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("executor_executions", &[], &self.stats.batches);
        registry.register_counter("executor_replays", &[], &self.stats.calls_replayed);
        registry.register_counter(
            "executor_replays",
            &[("kind", "read_only")],
            &self.stats.read_calls_replayed,
        );
        registry.register_counter("executor_cursor_elements", &[], &self.stats.cursor_elements);
    }
}

impl Snapshot for BatchExecutor {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry);
        registry.snapshot()
    }
}

impl BatchFrameHandler for BatchExecutor {
    fn invoke_batch(
        &self,
        server: &Arc<RmiServer>,
        request: BatchRequestRef<'_>,
    ) -> Result<BatchResponse, RemoteError> {
        let base = match request.session {
            Some(session) => self.sessions.lock().remove(&session.0).ok_or_else(|| {
                RemoteError::new(
                    RemoteErrorKind::Protocol,
                    format!("unknown batch session {session}"),
                )
            })?,
            None => SessionState::default(),
        };

        let mut restarts = 0u32;
        let output = loop {
            let allow_restart = restarts < self.max_restarts;
            match self.run_once(server, base.clone(), &request, allow_restart) {
                RunResult::Done(output) => break output,
                RunResult::RestartRequested => restarts += 1,
            }
        };

        let session = if request.keep_session {
            let id = request
                .session
                .unwrap_or_else(|| SessionId(self.next_session.fetch_add(1, Ordering::Relaxed)));
            self.sessions.lock().insert(id.0, output.state);
            Some(id)
        } else {
            None
        };

        Ok(BatchResponse {
            session,
            slots: output.slots,
            cursors: output.cursors,
            restarts,
        })
    }

    fn release_session(&self, session: SessionId) {
        self.sessions.lock().remove(&session.0);
    }
}

struct RunOutput {
    slots: Vec<(CallSeq, SlotOutcome)>,
    cursors: Vec<CursorResult>,
    state: SessionState,
}

enum RunResult {
    Done(RunOutput),
    RestartRequested,
}

/// Resolution of one reference to a remote object.
enum Resolved {
    Object(Arc<dyn RemoteObject>),
    /// The referenced call failed; dependents skip with its cause.
    Dependency(ErrorEnvelope),
    /// The reference itself is unusable (unknown id, value-returning call,
    /// missing element): an error attributed to the current call.
    Fault(RemoteError),
}

/// The receiver, its arguments resolved into the run's argument buffer,
/// or why not.
enum Prep {
    Ready(Arc<dyn RemoteObject>),
    Skip(ErrorEnvelope),
    Fault(RemoteError),
}

/// What became of one executed (or attempted) call.
enum Disposition {
    Success(OutValue),
    Failure { env: ErrorEnvelope, brk: bool },
    Restart,
}

/// Why a cursor sub-batch stopped early.
enum CursorAbort {
    Restart,
    Break {
        env: ErrorEnvelope,
        result: CursorResult,
    },
}

/// Per-element context while executing a cursor's sub-batch.
struct ElemCtx<'a> {
    cursor_seq: u32,
    element: &'a Arc<dyn RemoteObject>,
    objects: &'a HashMap<u32, Arc<dyn RemoteObject>>,
    outcomes: &'a HashMap<u32, Option<ErrorEnvelope>>,
}

impl BatchExecutor {
    fn run_once<'r>(
        &self,
        server: &Arc<RmiServer>,
        mut state: SessionState,
        request: &BatchRequestRef<'r>,
        allow_restart: bool,
    ) -> RunResult {
        self.stats.batches.inc();
        let calls = &request.calls;
        // cursor seq → indexes of its member calls, in order.
        let mut members_of: HashMap<u32, Vec<usize>> = HashMap::new();
        for (index, call) in calls.iter().enumerate() {
            if let Some(cursor) = call.cursor {
                members_of.entry(cursor.0).or_default().push(index);
            }
        }

        let ctx = server.call_ctx();
        let mut outcomes: HashMap<u32, Option<ErrorEnvelope>> = HashMap::new();
        let mut slots: Vec<(CallSeq, SlotOutcome)> = Vec::with_capacity(calls.len());
        let mut cursors: Vec<CursorResult> = Vec::new();
        let mut break_cause: Option<ErrorEnvelope> = None;
        let mut args: Vec<InArg<'r>> = Vec::new();

        for (index, call) in calls.iter().enumerate() {
            let seq = call.seq.0;
            if call.cursor.is_some() {
                // Member calls run inside their cursor, below.
                slots.push((call.seq, SlotOutcome::InCursor));
                continue;
            }
            if let Some(cause) = &break_cause {
                slots.push((call.seq, SlotOutcome::Skipped(cause.clone())));
                outcomes.insert(seq, Some(cause.clone()));
                continue;
            }

            let disposition = match self.prepare(server, &state, &outcomes, call, None, &mut args) {
                Prep::Skip(env) => {
                    slots.push((call.seq, SlotOutcome::Skipped(env.clone())));
                    outcomes.insert(seq, Some(env));
                    continue;
                }
                Prep::Fault(err) => {
                    self.fault_disposition(&err, call, index, &request.policy, allow_restart)
                }
                Prep::Ready(target) => self.execute_call(
                    &target,
                    call,
                    &args,
                    index,
                    &request.policy,
                    allow_restart,
                    &ctx,
                ),
            };

            match disposition {
                Disposition::Restart => return RunResult::RestartRequested,
                Disposition::Failure { env, brk } => {
                    slots.push((call.seq, SlotOutcome::Err(env.clone())));
                    outcomes.insert(seq, Some(env.clone()));
                    if brk {
                        break_cause = Some(env);
                    }
                }
                Disposition::Success(out) => {
                    if call.opens_cursor {
                        let elements = match out {
                            OutValue::RemoteList(elements) => elements,
                            _ => {
                                let err = RemoteError::new(
                                    RemoteErrorKind::BadArguments,
                                    format!(
                                        "cursor method {} must return an array of remote objects",
                                        call.method
                                    ),
                                );
                                let disposition = self.fault_disposition(
                                    &err,
                                    call,
                                    index,
                                    &request.policy,
                                    allow_restart,
                                );
                                match disposition {
                                    Disposition::Restart => return RunResult::RestartRequested,
                                    Disposition::Failure { env, brk } => {
                                        slots.push((call.seq, SlotOutcome::Err(env.clone())));
                                        outcomes.insert(seq, Some(env.clone()));
                                        if brk {
                                            break_cause = Some(env);
                                        }
                                    }
                                    Disposition::Success(_) => unreachable!(),
                                }
                                continue;
                            }
                        };
                        slots.push((call.seq, SlotOutcome::Ok(Value::Null)));
                        outcomes.insert(seq, None);
                        let member_idxs = members_of.remove(&seq).unwrap_or_default();
                        match self.run_cursor(
                            server,
                            &ctx,
                            &mut state,
                            calls,
                            &member_idxs,
                            seq,
                            elements,
                            &request.policy,
                            allow_restart,
                            &outcomes,
                        ) {
                            Ok(result) => cursors.push(result),
                            Err(CursorAbort::Restart) => return RunResult::RestartRequested,
                            Err(CursorAbort::Break { env, result }) => {
                                cursors.push(result);
                                break_cause = Some(env);
                            }
                        }
                    } else {
                        let value = match out {
                            OutValue::Data(value) => value,
                            OutValue::Remote(object) => {
                                // Stored server-side; with identity
                                // preservation (Section 4.4) nothing is
                                // marshalled, the ablation mode exports a
                                // reference like RMI would.
                                state.objects.insert(seq, Arc::clone(&object));
                                if self.export_remote_results {
                                    server.marshal_out(OutValue::Remote(object))
                                } else {
                                    Value::Null
                                }
                            }
                            // A remote array outside a cursor context falls
                            // back to RMI semantics: export and reference.
                            other @ OutValue::RemoteList(_) => server.marshal_out(other),
                        };
                        slots.push((call.seq, SlotOutcome::Ok(value)));
                        outcomes.insert(seq, None);
                    }
                }
            }
        }

        RunResult::Done(RunOutput {
            slots,
            cursors,
            state,
        })
    }

    /// Executes one cursor's sub-batch over every element (Section 3.4).
    // The Break abort carries the partial CursorResult by value; it is a
    // cold path, so the large Err variant is fine.
    #[allow(clippy::too_many_arguments, clippy::result_large_err)]
    fn run_cursor<'r>(
        &self,
        server: &Arc<RmiServer>,
        ctx: &CallCtx,
        state: &mut SessionState,
        calls: &[InvocationDataRef<'r>],
        member_idxs: &[usize],
        cursor_seq: u32,
        elements: Vec<Arc<dyn RemoteObject>>,
        policy: &PolicySpec,
        allow_restart: bool,
        outer_outcomes: &HashMap<u32, Option<ErrorEnvelope>>,
    ) -> Result<CursorResult, CursorAbort> {
        state
            .cursor_objects
            .insert(cursor_seq, elements.iter().cloned().map(Some).collect());
        let member_seqs: Vec<CallSeq> = member_idxs.iter().map(|&i| calls[i].seq).collect();
        // Per-member columns of remote results, aligned with elements.
        let mut columns: HashMap<u32, Vec<Option<Arc<dyn RemoteObject>>>> = member_seqs
            .iter()
            .map(|seq| (seq.0, Vec::with_capacity(elements.len())))
            .collect();

        let mut rows: Vec<Vec<SlotOutcome>> = Vec::with_capacity(elements.len());
        let mut abort_env: Option<ErrorEnvelope> = None;
        let mut args: Vec<InArg<'r>> = Vec::new();

        'elements: for element in &elements {
            self.stats.cursor_elements.inc();
            let mut elem_objects: HashMap<u32, Arc<dyn RemoteObject>> = HashMap::new();
            let mut elem_outcomes: HashMap<u32, Option<ErrorEnvelope>> = HashMap::new();
            let mut row: Vec<SlotOutcome> = Vec::with_capacity(member_idxs.len());

            for &member_index in member_idxs {
                let call = &calls[member_index];
                let seq = call.seq.0;
                let elem_ctx = ElemCtx {
                    cursor_seq,
                    element,
                    objects: &elem_objects,
                    outcomes: &elem_outcomes,
                };
                let prep = self.prepare(
                    server,
                    state,
                    outer_outcomes,
                    call,
                    Some(&elem_ctx),
                    &mut args,
                );
                let disposition = match prep {
                    Prep::Skip(env) => {
                        row.push(SlotOutcome::Skipped(env.clone()));
                        elem_outcomes.insert(seq, Some(env));
                        columns.entry(seq).or_default().push(None);
                        continue;
                    }
                    Prep::Fault(err) => {
                        self.fault_disposition(&err, call, member_index, policy, allow_restart)
                    }
                    Prep::Ready(target) => self.execute_call(
                        &target,
                        call,
                        &args,
                        member_index,
                        policy,
                        allow_restart,
                        ctx,
                    ),
                };
                match disposition {
                    Disposition::Restart => return Err(CursorAbort::Restart),
                    Disposition::Failure { env, brk } => {
                        row.push(SlotOutcome::Err(env.clone()));
                        elem_outcomes.insert(seq, Some(env.clone()));
                        columns.entry(seq).or_default().push(None);
                        if brk {
                            // Skip the rest of this row, then stop.
                            while row.len() < member_idxs.len() {
                                row.push(SlotOutcome::Skipped(env.clone()));
                                let skipped_seq = calls[member_idxs[row.len() - 1]].seq.0;
                                columns.entry(skipped_seq).or_default().push(None);
                            }
                            rows.push(row);
                            abort_env = Some(env);
                            break 'elements;
                        }
                    }
                    Disposition::Success(out) => {
                        let value = match out {
                            OutValue::Data(value) => value,
                            OutValue::Remote(object) => {
                                elem_objects.insert(seq, Arc::clone(&object));
                                columns.entry(seq).or_default().push(Some(object));
                                elem_outcomes.insert(seq, None);
                                row.push(SlotOutcome::Ok(Value::Null));
                                continue;
                            }
                            other @ OutValue::RemoteList(_) => server.marshal_out(other),
                        };
                        elem_outcomes.insert(seq, None);
                        columns.entry(seq).or_default().push(None);
                        row.push(SlotOutcome::Ok(value));
                    }
                }
            }
            rows.push(row);
        }

        // Pad aborted executions so the client sees one row per element.
        if let Some(env) = &abort_env {
            while rows.len() < elements.len() {
                rows.push(vec![SlotOutcome::Skipped(env.clone()); member_idxs.len()]);
            }
        }
        for (seq, mut column) in columns {
            column.resize(elements.len(), None);
            state.cursor_objects.insert(seq, column);
        }

        let result = CursorResult {
            cursor_seq: CallSeq(cursor_seq),
            len: elements.len() as u32,
            members: member_seqs,
            rows,
        };
        match abort_env {
            Some(env) => Err(CursorAbort::Break { env, result }),
            None => Ok(result),
        }
    }

    /// Resolves the receiver of one call, and its arguments into `args`
    /// (cleared first). A value argument stays the borrowed view the
    /// request decode built: the skeleton converts it to its parameter
    /// type, with no owned [`Value`] in between.
    fn prepare<'r>(
        &self,
        server: &Arc<RmiServer>,
        state: &SessionState,
        outcomes: &HashMap<u32, Option<ErrorEnvelope>>,
        call: &InvocationDataRef<'r>,
        elem: Option<&ElemCtx<'_>>,
        args: &mut Vec<InArg<'r>>,
    ) -> Prep {
        let target = match &call.target {
            Target::Remote(id) => self.resolve_table(server, *id),
            Target::Result(seq) => self.resolve_result(seq.0, state, outcomes, elem),
            Target::CursorElement(seq, index) => self.resolve_element(state, seq.0, *index),
        };
        let target = match target {
            Resolved::Object(object) => object,
            Resolved::Dependency(env) => return Prep::Skip(env),
            Resolved::Fault(err) => return Prep::Fault(err),
        };
        args.clear();
        for arg in &call.args {
            let resolved = match arg {
                ArgRef::Value(ValueRef::RemoteRef(id)) => self.resolve_table(server, *id),
                ArgRef::Value(value) => {
                    args.push(InArg::Value(value.clone()));
                    continue;
                }
                ArgRef::Result(seq) => self.resolve_result(seq.0, state, outcomes, elem),
                ArgRef::CursorElement(seq, index) => self.resolve_element(state, seq.0, *index),
            };
            match resolved {
                Resolved::Object(object) => args.push(InArg::Remote(object)),
                Resolved::Dependency(env) => return Prep::Skip(env),
                Resolved::Fault(err) => return Prep::Fault(err),
            }
        }
        Prep::Ready(target)
    }

    fn resolve_table(&self, server: &Arc<RmiServer>, id: brmi_wire::ObjectId) -> Resolved {
        match server.table().get(id) {
            Some(object) => Resolved::Object(object),
            None => Resolved::Fault(RemoteError::new(
                RemoteErrorKind::NoSuchObject,
                format!("no exported object {id}"),
            )),
        }
    }

    fn resolve_result(
        &self,
        seq: u32,
        state: &SessionState,
        outcomes: &HashMap<u32, Option<ErrorEnvelope>>,
        elem: Option<&ElemCtx<'_>>,
    ) -> Resolved {
        if let Some(elem) = elem {
            if seq == elem.cursor_seq {
                return Resolved::Object(Arc::clone(elem.element));
            }
            if let Some(object) = elem.objects.get(&seq) {
                return Resolved::Object(Arc::clone(object));
            }
            if let Some(Some(env)) = elem.outcomes.get(&seq) {
                return Resolved::Dependency(env.clone());
            }
        }
        if let Some(object) = state.objects.get(&seq) {
            return Resolved::Object(Arc::clone(object));
        }
        match outcomes.get(&seq) {
            Some(Some(env)) => Resolved::Dependency(env.clone()),
            Some(None) => Resolved::Fault(RemoteError::new(
                RemoteErrorKind::BadArguments,
                format!("call {seq} did not produce a remote object"),
            )),
            None => Resolved::Fault(RemoteError::new(
                RemoteErrorKind::Protocol,
                format!("reference to unknown call {seq}"),
            )),
        }
    }

    fn resolve_element(&self, state: &SessionState, seq: u32, index: u32) -> Resolved {
        match state
            .cursor_objects
            .get(&seq)
            .and_then(|column| column.get(index as usize))
        {
            Some(Some(object)) => Resolved::Object(Arc::clone(object)),
            Some(None) => Resolved::Fault(RemoteError::new(
                RemoteErrorKind::BadArguments,
                format!("cursor call {seq} has no object for element {index}"),
            )),
            None => Resolved::Fault(RemoteError::new(
                RemoteErrorKind::Protocol,
                format!("unknown cursor element {seq}[{index}]"),
            )),
        }
    }

    /// Invokes one call, applying the exception policy on failure
    /// (including bounded `Repeat`, which lends `args` again).
    #[allow(clippy::too_many_arguments)]
    fn execute_call(
        &self,
        target: &Arc<dyn RemoteObject>,
        call: &InvocationDataRef<'_>,
        args: &[InArg<'_>],
        index: usize,
        policy: &PolicySpec,
        allow_restart: bool,
        ctx: &CallCtx,
    ) -> Disposition {
        self.count_replayed(target, call.method);
        let mut attempts = 0u32;
        loop {
            match target.invoke(call.method, args, ctx) {
                Ok(out) => return Disposition::Success(out),
                Err(err) => {
                    let action = policy.action_for(&err, call.method, index as u32);
                    let env = ErrorEnvelope::from(&err);
                    match action {
                        ExceptionAction::Break => return Disposition::Failure { env, brk: true },
                        ExceptionAction::Continue => {
                            return Disposition::Failure { env, brk: false }
                        }
                        ExceptionAction::Repeat => {
                            attempts += 1;
                            if attempts > self.max_repeats {
                                return Disposition::Failure { env, brk: true };
                            }
                        }
                        ExceptionAction::Restart => {
                            if allow_restart {
                                return Disposition::Restart;
                            }
                            return Disposition::Failure { env, brk: true };
                        }
                    }
                }
            }
        }
    }

    /// Counts one dispatched call, classifying it read/write through the
    /// receiver's own method table rather than by method-name string.
    fn count_replayed(&self, target: &Arc<dyn RemoteObject>, method: &str) {
        self.stats.calls_replayed.inc();
        if target
            .method_meta(method)
            .is_some_and(|meta| meta.read_only)
        {
            self.stats.read_calls_replayed.inc();
        }
    }

    /// Policy handling for errors raised before the method could run
    /// (resolution faults). `Repeat` cannot help, so it degrades to Break.
    fn fault_disposition(
        &self,
        err: &RemoteError,
        call: &InvocationDataRef<'_>,
        index: usize,
        policy: &PolicySpec,
        allow_restart: bool,
    ) -> Disposition {
        let env = ErrorEnvelope::from(err);
        match policy.action_for(err, call.method, index as u32) {
            ExceptionAction::Continue => Disposition::Failure { env, brk: false },
            ExceptionAction::Restart if allow_restart => Disposition::Restart,
            _ => Disposition::Failure { env, brk: true },
        }
    }
}
