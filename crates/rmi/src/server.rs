//! The RMI server runtime: dispatch, export, marshalling and loopback.
//!
//! [`RmiServer`] is the single point every transport feeds
//! (it implements [`RequestHandler`]). It owns the [`ObjectTable`] and the
//! [`RegistryObject`], dispatches [`Frame::Call`]s, and delegates batch
//! frames to a pluggable [`BatchFrameHandler`] installed by the `brmi`
//! crate — the Rust analogue of the paper adding `invokeBatch` to
//! `UnicastRemoteObject` so every remote object supports batching without
//! application changes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use brmi_durable::{Log, LogError};
use brmi_obs::Tracer;
use brmi_transport::clock::Clock;
use brmi_transport::RequestHandler;
use brmi_wire::codec::WireCodec;
use brmi_wire::invocation::{BatchRequestRef, BatchResponse, ErrorEnvelope, SessionId};
use brmi_wire::protocol::{BatchCallRef, Frame, FrameRef, IdemKey};
use brmi_wire::{ObjectId, RemoteError, RemoteErrorKind, Value, ValueRef};
use parking_lot::RwLock;

use crate::dgc::{DgcConfig, DgcServer};
use crate::journal::{
    with_suppressed, DurableOptions, DurableReport, DurableState, Journal, JournalRecord,
    SnapshotState,
};
use crate::object::{CallCtx, InArg, Loopback, OutValue, RemoteObject};
use crate::registry::RegistryObject;
use crate::replay::{ReplyCache, ReplyCacheConfig};
use crate::table::ObjectTable;

/// Extension point for the batching layer.
///
/// The `brmi` crate installs an implementation via
/// [`RmiServer::set_batch_handler`]; a plain RMI server without one rejects
/// batch frames.
pub trait BatchFrameHandler: Send + Sync {
    /// Executes a recorded batch against `server` (the paper's
    /// `invokeBatch`, Figure 2).
    ///
    /// The request arrives as a borrowed view into the frame buffer: the
    /// executor converts each argument to an owned [`Value`] only when it
    /// hands it to the application, so decode pays no per-payload copy.
    /// Owned requests bridge in via [`brmi_wire::invocation::BatchRequest::to_ref`].
    ///
    /// # Errors
    ///
    /// Returns a protocol-kind error for malformed batches (unknown
    /// sessions, bad references); per-call failures are reported inside the
    /// response, not here.
    fn invoke_batch(
        &self,
        server: &Arc<RmiServer>,
        request: BatchRequestRef<'_>,
    ) -> Result<BatchResponse, RemoteError>;

    /// Discards a chained-batch session.
    fn release_session(&self, session: SessionId);
}

struct LoopbackSim {
    clock: Arc<dyn Clock>,
    cost: Duration,
}

/// The server half of the middleware.
pub struct RmiServer {
    table: ObjectTable,
    registry: Arc<RegistryObject>,
    batch_handler: RwLock<Option<Arc<dyn BatchFrameHandler>>>,
    loopback_sim: RwLock<Option<LoopbackSim>>,
    loopback_calls: AtomicU64,
    dgc: RwLock<Option<Arc<DgcServer>>>,
    reply_cache: ReplyCache,
    tracer: RwLock<Option<Arc<Tracer>>>,
    journal: RwLock<Option<Arc<Journal>>>,
    durable_states: RwLock<BTreeMap<String, Arc<dyn DurableState>>>,
    weak_self: Weak<RmiServer>,
}

impl RmiServer {
    /// Creates a server with an empty object table and a registry installed
    /// at [`ObjectId::REGISTRY`].
    pub fn new() -> Arc<Self> {
        RmiServer::with_reply_cache(ReplyCacheConfig::default())
    }

    /// As [`RmiServer::new`], with explicit reply-cache sizing (the cache
    /// backs exactly-once visible semantics for keyed requests; unkeyed
    /// traffic never touches it).
    pub fn with_reply_cache(config: ReplyCacheConfig) -> Arc<Self> {
        Arc::new_cyclic(|weak_self| {
            let registry = RegistryObject::new();
            let table = ObjectTable::new();
            table.install(
                ObjectId::REGISTRY,
                Arc::clone(&registry) as Arc<dyn RemoteObject>,
            );
            RmiServer {
                table,
                registry,
                batch_handler: RwLock::new(None),
                loopback_sim: RwLock::new(None),
                loopback_calls: AtomicU64::new(0),
                dgc: RwLock::new(None),
                reply_cache: ReplyCache::new(config),
                tracer: RwLock::new(None),
                journal: RwLock::new(None),
                durable_states: RwLock::new(BTreeMap::new()),
                weak_self: Weak::clone(weak_self),
            }
        })
    }

    /// The keyed-request reply cache (introspection for tests and stats).
    pub fn reply_cache(&self) -> &ReplyCache {
        &self.reply_cache
    }

    /// The export table.
    pub fn table(&self) -> &ObjectTable {
        &self.table
    }

    /// The naming registry.
    pub fn registry(&self) -> &RegistryObject {
        &self.registry
    }

    /// Exports an object and returns its reference id.
    pub fn export(&self, object: Arc<dyn RemoteObject>) -> ObjectId {
        self.table.export(object)
    }

    /// Exports an object and binds it under `name` in the registry.
    ///
    /// # Errors
    ///
    /// Fails with `AlreadyBound` when the name is taken (the object is
    /// still exported).
    pub fn bind(&self, name: &str, object: Arc<dyn RemoteObject>) -> Result<ObjectId, RemoteError> {
        let id = self.export(object);
        self.registry.bind(name, id)?;
        Ok(id)
    }

    /// Installs the batching extension.
    pub fn set_batch_handler(&self, handler: Arc<dyn BatchFrameHandler>) {
        *self.batch_handler.write() = Some(handler);
    }

    /// Installs a tracer: every [`Frame::Traced`] request then records an
    /// `origin.execute` span (a child of the sender's span) and the reply
    /// travels back wrapped in the same envelope. Without a tracer, traced
    /// requests still execute — the envelope is simply not echoed.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = Some(tracer);
    }

    /// Configures simulated cost charged per loopback call (a call made
    /// through a stub that was marshalled back to its own server).
    pub fn set_loopback_sim(&self, clock: Arc<dyn Clock>, cost: Duration) {
        *self.loopback_sim.write() = Some(LoopbackSim { clock, cost });
    }

    /// Number of loopback calls served so far — the Figure 10/11 benchmarks
    /// assert RMI pays these and BRMI does not.
    pub fn loopback_calls(&self) -> u64 {
        self.loopback_calls.load(Ordering::Relaxed)
    }

    /// Enables lease-based distributed GC for objects exported by
    /// marshalling (Java RMI's DGC; see [`DgcServer`]). Objects exported
    /// explicitly with [`export`](RmiServer::export)/[`bind`](RmiServer::bind)
    /// are pinned and never collected.
    ///
    /// Returns the DGC handle for introspection and sweeping.
    pub fn enable_dgc(&self, clock: Arc<dyn Clock>, config: DgcConfig) -> Arc<DgcServer> {
        let dgc = DgcServer::new(clock, config);
        if let Some(journal) = self.journal() {
            dgc.attach_journal(&journal);
        }
        *self.dgc.write() = Some(Arc::clone(&dgc));
        dgc
    }

    /// The DGC handle, if enabled.
    pub fn dgc(&self) -> Option<Arc<DgcServer>> {
        self.dgc.read().clone()
    }

    /// Unexports every object whose lease has expired; returns how many
    /// were reclaimed. A no-op without DGC enabled.
    ///
    /// Java runs this from the lease checker thread; here it is explicit
    /// (and also runs on every `dirty`/`clean` frame) so tests and
    /// benchmarks stay deterministic.
    pub fn dgc_sweep(&self) -> usize {
        let Some(dgc) = self.dgc.read().clone() else {
            return 0;
        };
        let expired = dgc.take_expired();
        for id in &expired {
            self.table.unexport(*id);
        }
        expired.len()
    }

    /// An owning handle to this server, for contexts that need `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if called while the server is being dropped.
    pub fn strong(&self) -> Arc<RmiServer> {
        self.weak_self
            .upgrade()
            .expect("server used during teardown")
    }

    /// The call context handed to skeletons.
    pub fn call_ctx(&self) -> CallCtx {
        CallCtx {
            loopback: self.strong() as Arc<dyn Loopback>,
        }
    }

    /// Dispatches one plain call and marshals the result.
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for unknown targets, plus whatever the skeleton and
    /// application raise.
    pub fn dispatch_call(
        &self,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RemoteError> {
        self.dispatch_call_ref(target, method, args.iter().map(Value::to_ref).collect())
    }

    /// As [`RmiServer::dispatch_call`], for arguments decoded as borrowed
    /// views. The skeleton converts each view straight to its parameter
    /// type, so no owned [`Value`] is built for an argument.
    ///
    /// # Errors
    ///
    /// As [`RmiServer::dispatch_call`].
    pub fn dispatch_call_ref(
        &self,
        target: ObjectId,
        method: &str,
        args: Vec<ValueRef<'_>>,
    ) -> Result<Value, RemoteError> {
        let object = self.table.get(target).ok_or_else(|| {
            RemoteError::new(
                RemoteErrorKind::NoSuchObject,
                format!("no exported object {target}"),
            )
        })?;
        let in_args: Vec<InArg<'_>> = args.into_iter().map(InArg::Value).collect();
        let out = object.invoke(method, &in_args, &self.call_ctx())?;
        Ok(self.marshal_out(out))
    }

    /// Runs one borrowed batch request through the installed batch handler.
    fn invoke_batch_ref(&self, request: BatchRequestRef<'_>) -> Result<BatchResponse, RemoteError> {
        let handler = self.batch_handler.read().clone().ok_or_else(|| {
            RemoteError::new(
                RemoteErrorKind::Protocol,
                "server has no batch support installed",
            )
        })?;
        handler.invoke_batch(&self.strong(), request)
    }

    /// Runs one request under its idempotency key, if it carries one: the
    /// key comes off, and the bare request it named executes under the
    /// reply cache — first sighting executes and records the reply, a
    /// re-sent key replays it without executing — journaled before the
    /// reply escapes when the origin is durable. An unkeyed request just
    /// executes.
    fn execute_keyed(&self, mut request: FrameRef<'_>) -> Frame {
        let key = match &mut request {
            FrameRef::Call { key, .. } | FrameRef::BatchCall(BatchCallRef { key, .. }) => {
                key.take()
            }
            // A super-batch has no key of its own; each member's is
            // peeled when `execute` hands that member back here.
            _ => None,
        };
        let Some(key) = key else {
            return self.execute(request);
        };
        match self.journal() {
            Some(journal) => self.keyed_durable(&journal, key, request.into_owned()),
            None => self
                .reply_cache
                .execute_guarded(key, || self.execute(request)),
        }
    }

    /// The one request match: executes a bare (key already peeled) request.
    fn execute(&self, request: FrameRef<'_>) -> Frame {
        match request {
            FrameRef::Call {
                target,
                method,
                args,
                ..
            } => reply_frame(
                self.dispatch_call_ref(target, method, args)
                    .map(Frame::Return),
            ),
            FrameRef::BatchCall(call) => {
                reply_frame(self.invoke_batch_ref(call.request).map(Frame::BatchReturn))
            }
            // A relay super-batch: every member executes independently,
            // exactly as if it had arrived in its own round trip — under
            // its *own* key when it has one (the members come from
            // different downstream clients) — so the edge tier coalescing
            // traffic changes no per-batch semantics (sessions, policies
            // and exception cursors are all per member). One failing member
            // yields an error entry; the others still run. Because a keyed
            // member's cached reply is the frame a lone batch would get, a
            // key retried alone and the same key regrouped into a
            // super-batch share one cache slot.
            FrameRef::SuperBatchCall(members) => Frame::SuperBatchReturn(
                members
                    .into_iter()
                    .map(
                        |member| match self.execute_keyed(FrameRef::BatchCall(member)) {
                            Frame::BatchReturn(response) => Ok(response),
                            Frame::Error(env) => Err(env),
                            other => Err(ErrorEnvelope::from(&RemoteError::new(
                                RemoteErrorKind::Protocol,
                                format!("unexpected cached batch reply: {}", other.kind_name()),
                            ))),
                        },
                    )
                    .collect(),
            ),
            // Control frames (and, unreachably, an envelope nested inside
            // the one `handle_ref` peeled).
            other => self.handle_control(other.into_owned()),
        }
    }

    /// Serves the frames with no per-call payload: session release and
    /// the DGC lease protocol. Anything else is not a request.
    fn handle_control(&self, frame: Frame) -> Frame {
        match frame {
            Frame::ReleaseSession(session) => {
                if let Some(handler) = self.batch_handler.read().clone() {
                    handler.release_session(session);
                }
                Frame::Released
            }
            Frame::Dirty { ids, lease_millis } => self.serve_dgc(|dgc| {
                let granted = dgc.dirty(&ids, Duration::from_millis(lease_millis));
                Frame::Leased {
                    lease_millis: granted.as_millis() as u64,
                }
            }),
            Frame::Clean { ids } => self.serve_dgc(|dgc| {
                for id in dgc.clean(&ids) {
                    self.table.unexport(id);
                }
                Frame::Cleaned
            }),
            other => protocol_error(format!("unexpected request frame: {}", other.kind_name())),
        }
    }

    /// Answers one DGC frame — a protocol error without DGC enabled — and
    /// sweeps expired leases, as every `dirty`/`clean` does.
    fn serve_dgc(&self, serve: impl FnOnce(&DgcServer) -> Frame) -> Frame {
        let reply = match self.dgc.read().as_ref() {
            Some(dgc) => serve(dgc),
            None => protocol_error("server has no distributed GC enabled"),
        };
        self.dgc_sweep();
        reply
    }

    /// The attached durable journal, if any.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.journal.read().clone()
    }

    /// Registers application state to ride the journal's compacted
    /// snapshots under `name`. Must be called before
    /// [`RmiServer::attach_durable`] so a recovered snapshot can find its
    /// target; registering the same name again replaces the previous
    /// state.
    pub fn register_durable_state(&self, name: impl Into<String>, state: Arc<dyn DurableState>) {
        self.durable_states.write().insert(name.into(), state);
    }

    /// Attaches a durable journal at `dir`, first recovering whatever a
    /// previous incarnation persisted there.
    ///
    /// Call this **after** server setup (exports, [`RmiServer::bind`],
    /// [`RmiServer::enable_dgc`], [`RmiServer::set_batch_handler`],
    /// [`RmiServer::register_durable_state`]) and **before** serving
    /// traffic. Setup mutations are never journaled — both the original
    /// and the recovered incarnation perform them identically — so
    /// recovery only replays what happened *after* attach: the snapshot
    /// is restored, then every later journal record is re-applied
    /// (keyed executions re-execute against the application with the
    /// journaled reply seeded into the reply cache; registry and lease
    /// records apply as idempotent upserts).
    ///
    /// # Errors
    ///
    /// [`LogError`] for I/O failures and undecodable (non-torn) journal
    /// payloads. Torn or corrupt log tails are not errors — they are
    /// truncated and counted in the report.
    pub fn attach_durable(
        &self,
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<DurableReport, LogError> {
        let dir = dir.as_ref();
        let (log, recovered) = Log::open(dir, options.log)?;
        let journal = Journal::new(log, dir, options.snapshot_every);
        let mut report = DurableReport {
            truncated_records: recovered.truncated_records,
            ..DurableReport::default()
        };
        with_suppressed(|| -> Result<(), LogError> {
            if let Some((_, snapshot)) = &recovered.snapshot {
                let state = SnapshotState::from_wire_bytes(snapshot).map_err(decode_error)?;
                self.restore_snapshot_state(state);
                report.restored_snapshot = true;
            }
            for (_, payload) in &recovered.records {
                match JournalRecord::from_wire_bytes(payload).map_err(decode_error)? {
                    JournalRecord::Executed {
                        key,
                        request,
                        reply,
                    } => {
                        report.replayed_executions += 1;
                        // Re-execute for the application's side effects;
                        // the journaled reply is the authoritative answer
                        // a retrying client must see.
                        self.reply_cache.execute_guarded(key, || {
                            let _ = self.handle(request);
                            reply
                        });
                    }
                    JournalRecord::Bind { name, id } | JournalRecord::Rebind { name, id } => {
                        report.replayed_events += 1;
                        self.registry.rebind(&name, id);
                    }
                    JournalRecord::Unbind { name } => {
                        report.replayed_events += 1;
                        let _ = self.registry.unbind(&name);
                    }
                    JournalRecord::LeaseGranted { id, expires_nanos }
                    | JournalRecord::LeaseRenewed { id, expires_nanos } => {
                        report.replayed_events += 1;
                        if let Some(dgc) = self.dgc() {
                            dgc.restore_lease(id, expires_nanos);
                        }
                    }
                    JournalRecord::LeaseCleaned { id } | JournalRecord::LeaseExpired { id } => {
                        report.replayed_events += 1;
                        if let Some(dgc) = self.dgc() {
                            dgc.forget_lease(id);
                        }
                        self.table.unexport(id);
                    }
                }
            }
            Ok(())
        })?;
        self.registry.attach_journal(&journal);
        if let Some(dgc) = self.dgc() {
            dgc.attach_journal(&journal);
        }
        *self.journal.write() = Some(journal);
        Ok(report)
    }

    /// Creates a fresh server and recovers it from the journal at `dir`
    /// with default options. Suitable when the durable state is entirely
    /// middleware-side (registry, leases, reply cache); servers with
    /// application objects should instead repeat their setup on a new
    /// server and call [`RmiServer::attach_durable`] themselves.
    ///
    /// # Errors
    ///
    /// As [`RmiServer::attach_durable`].
    pub fn recover(dir: impl AsRef<Path>) -> Result<(Arc<RmiServer>, DurableReport), LogError> {
        let server = RmiServer::new();
        let report = server.attach_durable(dir, DurableOptions::default())?;
        Ok((server, report))
    }

    /// Forces a compacted snapshot now (quiescing keyed traffic). Returns
    /// `false` when no journal is attached.
    ///
    /// # Errors
    ///
    /// As [`Journal::snapshot_now`].
    pub fn durable_snapshot(&self) -> Result<bool, LogError> {
        match self.journal() {
            Some(journal) => {
                journal.snapshot_now(self)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Captures the durable view of this server for a snapshot. The
    /// caller (the journal) holds the quiesce lock exclusively, so no
    /// keyed execution is in flight.
    pub(crate) fn capture_snapshot_state(&self) -> SnapshotState {
        let leases = self
            .dgc()
            .map(|dgc| dgc.export_leases())
            .unwrap_or_default();
        let app_states: Vec<(String, Value)> = self
            .durable_states
            .read()
            .iter()
            .map(|(name, state)| (name.clone(), state.capture()))
            .collect();
        SnapshotState {
            next_export_id: self.table.next_id(),
            bindings: self.registry.export_bindings(),
            leases,
            clients: self.reply_cache.export_state(),
            app_states,
        }
    }

    /// Restores a recovered snapshot. Runs inside a suppressed scope,
    /// before any journal is attached.
    fn restore_snapshot_state(&self, state: SnapshotState) {
        self.table.reserve_through(state.next_export_id);
        for (name, id) in state.bindings {
            self.registry.rebind(&name, id);
        }
        if let Some(dgc) = self.dgc() {
            for (id, expires_nanos) in state.leases {
                dgc.restore_lease(ObjectId(id), expires_nanos);
            }
        }
        self.reply_cache.import_state(state.clients);
        let states = self.durable_states.read();
        for (name, value) in state.app_states {
            if let Some(target) = states.get(&name) {
                target.restore(&value);
            }
        }
    }

    /// The durable keyed path: execute under the journal's quiesce lock,
    /// journal `(key, request, reply)` durably before the reply escapes,
    /// then (outside the lock) write a compacted snapshot if one is due.
    ///
    /// `request` is the bare request the key named (`key: None`), owned
    /// because the journal outlives the frame buffer: it is executed from
    /// a borrowed view and journaled from the same copy, and recovery
    /// replays it through [`RequestHandler::handle`] without re-entering
    /// this path.
    fn keyed_durable(&self, journal: &Arc<Journal>, key: IdemKey, request: Frame) -> Frame {
        let reply = {
            let _quiesce = journal.begin_keyed();
            self.reply_cache.execute_guarded(key, || {
                let reply = with_suppressed(|| self.execute(request.to_ref()));
                match journal.executed(key, &request, &reply) {
                    Ok(()) => reply,
                    // The execution happened but is not durable: the
                    // origin is crashing. Answering with a transport
                    // error (never cached as the journaled reply) keeps
                    // the client retrying until the recovered origin
                    // gives the authoritative answer.
                    Err(err) => reply_frame(Err(RemoteError::transport(format!(
                        "origin crashed before the reply became durable: {err}"
                    )))),
                }
            })
        };
        journal.maybe_snapshot(self);
        reply
    }

    /// Marshals a method result for the wire: remote objects are exported
    /// and replaced by references (this is precisely the step the batch
    /// executor skips to preserve identity — paper Section 4.4).
    pub fn marshal_out(&self, out: OutValue) -> Value {
        match out {
            OutValue::Data(value) => value,
            OutValue::Remote(object) => Value::RemoteRef(self.export_marshalled(object)),
            OutValue::RemoteList(objects) => Value::List(
                objects
                    .into_iter()
                    .map(|object| Value::RemoteRef(self.export_marshalled(object)))
                    .collect(),
            ),
        }
    }

    /// Exports an object that is crossing the wire inside a result. With
    /// DGC enabled the export carries a lease (unlike explicit exports,
    /// which are pinned).
    fn export_marshalled(&self, object: Arc<dyn RemoteObject>) -> ObjectId {
        let id = self.table.export(object);
        if let Some(dgc) = self.dgc.read().as_ref() {
            dgc.grant(id);
        }
        id
    }
}

/// A dispatch outcome as the frame that answers it.
fn reply_frame(outcome: Result<Frame, RemoteError>) -> Frame {
    outcome.unwrap_or_else(|err| Frame::Error(ErrorEnvelope::from(&err)))
}

fn protocol_error(message: impl Into<String>) -> Frame {
    reply_frame(Err(RemoteError::new(RemoteErrorKind::Protocol, message)))
}

/// Maps an undecodable (but intact — the CRC matched) journal payload to
/// a [`LogError`]. This is a version-skew or software bug, not a torn
/// write, so it surfaces instead of being truncated.
fn decode_error(err: brmi_wire::WireError) -> LogError {
    LogError::Io(std::io::Error::other(format!(
        "undecodable journal payload: {err}"
    )))
}

impl std::fmt::Debug for RmiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiServer")
            .field("exported_objects", &self.table.len())
            .field("loopback_calls", &self.loopback_calls())
            .finish_non_exhaustive()
    }
}

impl RequestHandler for RmiServer {
    /// The owned entry point (journal recovery, the codec-skipping in-proc
    /// mode, direct tests) is a view of the borrowed one: it pays a
    /// borrowed-mirror allocation per call, which is fine off the wire
    /// path — socket transports decode the borrowed form directly.
    fn handle(&self, frame: Frame) -> Frame {
        self.handle_ref(frame.to_ref())
    }

    /// The dispatch path: the trace envelope comes off once, then the key,
    /// then the bare request is matched once. Payload-carrying requests
    /// (calls and batches) are dispatched straight from the borrowed view,
    /// so decoding a request performs no per-`Str`/`Bytes` heap copy.
    ///
    /// A traced request is timed as an `origin.execute` span and its reply
    /// re-wrapped with the origin's span, so the caller can close the loop.
    fn handle_ref(&self, frame: FrameRef<'_>) -> Frame {
        let (ctx, request) = frame.split_trace();
        let traced = ctx.and_then(|ctx| Some((ctx, self.tracer.read().clone()?)));
        let Some((ctx, tracer)) = traced else {
            return self.execute_keyed(request);
        };
        let span = tracer.child(ctx);
        let start = tracer.now();
        let reply = self.execute_keyed(request);
        tracer.record(span, "origin.execute", start, tracer.now());
        reply.with_trace(Some(span))
    }
}

impl Loopback for RmiServer {
    fn invoke(
        &self,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RemoteError> {
        self.loopback_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(sim) = self.loopback_sim.read().as_ref() {
            sim.clock.advance(sim.cost);
        }
        self.dispatch_call(target, method, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::no_such_method;
    use brmi_transport::clock::VirtualClock;
    use brmi_wire::invocation::BatchRequest;
    use std::any::Any;

    /// A counter service used to exercise dispatch.
    struct Counter {
        hits: AtomicU64,
    }

    impl RemoteObject for Counter {
        fn interface_name(&self) -> &'static str {
            "counter"
        }

        fn invoke(
            &self,
            method: &str,
            args: &[InArg<'_>],
            _ctx: &CallCtx,
        ) -> Result<OutValue, RemoteError> {
            match method {
                "hit" => {
                    let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
                    Ok(OutValue::Data(Value::I64(n as i64)))
                }
                "echo" => match args.first() {
                    Some(InArg::Value(v)) => Ok(OutValue::Data(v.to_owned_value())),
                    _ => Err(RemoteError::new(RemoteErrorKind::BadArguments, "echo")),
                },
                "fail" => Err(RemoteError::application("TestError", "requested")),
                "spawn" => Ok(OutValue::Remote(Arc::new(Counter {
                    hits: AtomicU64::new(0),
                }))),
                other => Err(no_such_method("counter", other)),
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn counter() -> Arc<dyn RemoteObject> {
        Arc::new(Counter {
            hits: AtomicU64::new(0),
        })
    }

    #[test]
    fn dispatch_reaches_exported_object() {
        let server = RmiServer::new();
        let id = server.export(counter());
        let value = server.dispatch_call(id, "hit", vec![]).unwrap();
        assert_eq!(value, Value::I64(1));
        let value = server.dispatch_call(id, "hit", vec![]).unwrap();
        assert_eq!(value, Value::I64(2));
    }

    #[test]
    fn dispatch_to_unknown_object_fails() {
        let server = RmiServer::new();
        let err = server
            .dispatch_call(ObjectId(99), "hit", vec![])
            .unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::NoSuchObject);
    }

    #[test]
    fn remote_result_is_exported_and_referenced() {
        let server = RmiServer::new();
        let id = server.export(counter());
        let before = server.table().len();
        let value = server.dispatch_call(id, "spawn", vec![]).unwrap();
        match value {
            Value::RemoteRef(child) => {
                assert!(server.table().get(child).is_some());
            }
            other => panic!("expected remote ref, got {other:?}"),
        }
        assert_eq!(server.table().len(), before + 1);
    }

    #[test]
    fn handle_call_frame_returns_or_errors() {
        let server = RmiServer::new();
        let id = server.export(counter());
        let reply = server.handle(Frame::Call {
            key: None,
            target: id,
            method: "echo".into(),
            args: vec![Value::Str("x".into())],
        });
        assert_eq!(reply, Frame::Return(Value::Str("x".into())));

        let reply = server.handle(Frame::Call {
            key: None,
            target: id,
            method: "fail".into(),
            args: vec![],
        });
        match reply {
            Frame::Error(env) => assert_eq!(env.exception, "TestError"),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    #[test]
    fn batch_frame_without_handler_is_protocol_error() {
        let server = RmiServer::new();
        let reply = server.handle(Frame::BatchCall(
            BatchRequest {
                session: None,
                calls: vec![],
                policy: Default::default(),
                keep_session: false,
            }
            .into(),
        ));
        match reply {
            Frame::Error(env) => assert_eq!(env.kind, "protocol"),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    #[test]
    fn super_batch_without_handler_errors_per_entry() {
        let server = RmiServer::new();
        let batch = BatchRequest {
            session: None,
            calls: vec![],
            policy: Default::default(),
            keep_session: false,
        };
        let reply = server.handle(Frame::SuperBatchCall(vec![
            batch.clone().into(),
            batch.into(),
        ]));
        match reply {
            Frame::SuperBatchReturn(replies) => {
                assert_eq!(replies.len(), 2);
                for entry in replies {
                    assert_eq!(entry.unwrap_err().kind, "protocol");
                }
            }
            other => panic!("expected super-batch return, got {other:?}"),
        }
    }

    #[test]
    fn release_without_handler_still_acks() {
        let server = RmiServer::new();
        assert_eq!(
            server.handle(Frame::ReleaseSession(SessionId(3))),
            Frame::Released
        );
    }

    #[test]
    fn reply_frames_are_rejected_as_requests() {
        let server = RmiServer::new();
        let reply = server.handle(Frame::Return(Value::Null));
        assert!(matches!(reply, Frame::Error(_)));
    }

    #[test]
    fn registry_is_reachable_via_dispatch() {
        let server = RmiServer::new();
        let id = server.export(counter());
        server.registry().bind("ctr", id).unwrap();
        let value = server
            .dispatch_call(ObjectId::REGISTRY, "lookup", vec![Value::Str("ctr".into())])
            .unwrap();
        assert_eq!(value, Value::RemoteRef(id));
    }

    #[test]
    fn loopback_counts_and_charges() {
        let server = RmiServer::new();
        let clock = VirtualClock::new();
        server.set_loopback_sim(clock.clone(), Duration::from_micros(150));
        let id = server.export(counter());
        let value = Loopback::invoke(&*server, id, "hit", vec![]).unwrap();
        assert_eq!(value, Value::I64(1));
        assert_eq!(server.loopback_calls(), 1);
        assert_eq!(clock.elapsed(), Duration::from_micros(150));
    }

    #[test]
    fn keyed_call_executes_once_and_replays() {
        let server = RmiServer::new();
        let id = server.export(counter());
        let key = brmi_wire::protocol::IdemKey {
            client_id: 1,
            seq: 0,
            acked: 0,
        };
        let call = |key| {
            server.handle(Frame::Call {
                key: Some(key),
                target: id,
                method: "hit".into(),
                args: vec![],
            })
        };
        assert_eq!(call(key), Frame::Return(Value::I64(1)));
        // A verbatim re-send (transport retry) replays the cached reply;
        // the counter does not advance.
        assert_eq!(call(key), Frame::Return(Value::I64(1)));
        assert_eq!(server.reply_cache().executions(), 1);
        assert_eq!(server.reply_cache().replays(), 1);
        // A fresh seq acking the old one executes and releases the slot.
        let next = brmi_wire::protocol::IdemKey {
            client_id: 1,
            seq: 1,
            acked: 1,
        };
        assert_eq!(call(next), Frame::Return(Value::I64(2)));
        assert_eq!(server.reply_cache().retained(), 1);
    }

    #[test]
    fn keyed_error_replies_replay_without_reexecuting() {
        let server = RmiServer::new();
        let id = server.export(counter());
        let key = brmi_wire::protocol::IdemKey {
            client_id: 2,
            seq: 0,
            acked: 0,
        };
        let call = || {
            server.handle(Frame::Call {
                key: Some(key),
                target: id,
                method: "fail".into(),
                args: vec![],
            })
        };
        let first = call();
        assert!(matches!(&first, Frame::Error(env) if env.exception == "TestError"));
        assert_eq!(call(), first, "the application error IS the reply");
        assert_eq!(server.reply_cache().executions(), 1);
    }

    #[test]
    fn keyed_batch_and_super_batch_share_cache_slots() {
        use brmi_wire::protocol::{BatchCall, IdemKey};
        let server = RmiServer::new();
        // No batch handler installed: every execution is a protocol error,
        // which is still a cacheable reply — what matters here is the
        // key-level dedup across the two frame shapes.
        let key = IdemKey {
            client_id: 3,
            seq: 0,
            acked: 0,
        };
        let batch = BatchRequest {
            session: None,
            calls: vec![],
            policy: Default::default(),
            keep_session: false,
        };
        let direct = server.handle(Frame::BatchCall(BatchCall {
            key: Some(key),
            request: batch.clone(),
        }));
        assert!(matches!(direct, Frame::Error(_)));
        assert_eq!(server.reply_cache().executions(), 1);
        // The same key arriving inside a relay super-batch replays the
        // recorded reply as that inner batch's error entry.
        let reply = server.handle(Frame::SuperBatchCall(vec![BatchCall {
            key: Some(key),
            request: batch,
        }]));
        match reply {
            Frame::SuperBatchReturn(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].as_ref().unwrap_err().kind, "protocol");
            }
            other => panic!("expected super-batch return, got {other:?}"),
        }
        assert_eq!(server.reply_cache().executions(), 1, "no second execution");
        assert_eq!(server.reply_cache().replays(), 1);
    }

    #[test]
    fn bind_convenience_exports_and_binds() {
        let server = RmiServer::new();
        let id = server.bind("svc", counter()).unwrap();
        assert_eq!(server.registry().lookup("svc").unwrap(), id);
        assert!(server.bind("svc", counter()).is_err());
    }
}
