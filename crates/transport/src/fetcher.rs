//! Keyed batch fetcher: read dedup + caching at the relay tier.
//!
//! The relay ([`crate::relay`]) cuts round trips by *coalescing* batches;
//! this module cuts origin **executions**. Hot read-mostly workloads ask
//! the origin the same questions over and over — `get_balance` on the same
//! account from dozens of edge clients — and the origin recomputes an
//! answer it just produced. [`BatchFetcher`] sits in front of any
//! [`RequestHandler`] (usually a [`BatchRelay`](crate::relay::BatchRelay))
//! and gives declared-read-only calls a cache key — object id + method +
//! encoded arguments ([`read_cache_key`]) — so that:
//!
//! * identical in-flight reads **collapse**: the first caller probes the
//!   origin, every concurrent caller with the same key waits on that
//!   probe's [`OneShot`] slot and gets a copy of its result (one origin
//!   execution, fanned back to all);
//! * repeated reads are served from a bounded TTL cache with **zero**
//!   origin round trips until the entry expires, is evicted, or is
//!   invalidated by a write. TTLs run on a [`TimeSource`]: wall clock by
//!   default, a [`VirtualClock`](crate::clock::VirtualClock) in tests.
//!
//! # What may be cached
//!
//! Nothing is guessed from method names. A batch is *cacheable* only when
//! the [`MethodRegistry`] — built from the [`MethodMeta`] tables the
//! `remote_interface!` macro generates for `#[read_only]` annotations —
//! classifies **every** call as a cacheable read (read-only in every
//! declaring interface, value-returning), and the batch carries no session,
//! no cursors, no batch-local references and a plain `Abort`/`Continue`
//! policy. Everything else is forwarded untouched.
//!
//! # Invalidation
//!
//! The fetcher watches every frame it forwards. A call whose method is not
//! read-only bumps the *epoch* of its target object (or the global epoch
//! when the target is batch-local and therefore unknown) **before** the
//! write is forwarded; cached entries, in-flight joins and completing
//! probes are all validated against their epoch snapshots — a probe
//! planned before a write is neither joined nor cached after it. A client
//! that writes through the
//! fetcher therefore never reads its own stale value afterwards, errors are
//! never cached, and [`BatchFetcher::invalidate_object`] /
//! [`BatchFetcher::invalidate_all`] provide explicit invalidation.
//!
//! Keyed (retry-safe) frames are never *served* by this tier — their
//! delivery contract belongs to the origin's reply cache — but they are
//! watched exactly like unkeyed traffic: a keyed write bumps epochs before
//! it is forwarded, including on transparent re-sends.
//!
//! # Semantics
//!
//! Probes ship with a `Continue` policy so one failing read cannot skip
//! reads coalesced from other clients; the original batch's `Abort` shape
//! is reassembled afterwards (first error turns the remaining slots into
//! `Skipped`, exactly as the origin would have). Because every cacheable
//! call is a declared read of a plain value, executing it out of order,
//! once for many clients, or not at all (cache hit) is unobservable — the
//! property tests in `brmi-apps` assert direct ≡ fetched over random
//! programs, including under transport faults.
//!
//! [`read_cache_key`]: brmi_wire::meta::read_cache_key
//! [`MethodMeta`]: brmi_wire::MethodMeta

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use brmi_obs::{Counter, MetricsSnapshot, Registry, Snapshot, TimeSource, WallTime};
use brmi_wire::invocation::{
    BatchRequest, BatchResponse, CallSeq, ErrorEnvelope, InvocationData, PolicySpec, SlotOutcome,
    Target,
};
use brmi_wire::meta::read_cache_key;
use brmi_wire::protocol::Frame;
use brmi_wire::{MethodRegistry, ObjectId, RemoteError, RemoteErrorKind, Value};

use crate::relay::ReadCachePolicy;
use crate::slot::OneShot;
use crate::RequestHandler;

/// Cumulative fetcher counters.
///
/// Backed by [`brmi_obs`] counters since the observability migration: the
/// getters are thin shims, and [`FetcherStats::register_metrics`] attaches
/// the same cells (families `fetcher_*`, with the unified `*_hits` /
/// `*_drops` vocabulary) to a [`Registry`] for unified snapshots.
#[derive(Debug, Default)]
pub struct FetcherStats {
    batches: Counter,
    cacheable_batches: Counter,
    lookups: Counter,
    hits: Counter,
    coalesced: Counter,
    misses: Counter,
    probe_batches: Counter,
    invalidations: Counter,
    evictions: Counter,
    expirations: Counter,
}

impl FetcherStats {
    /// Batch frames that entered the fetcher.
    pub fn batch_frames(&self) -> u64 {
        self.batches.value()
    }

    /// Batches classified cacheable (every call a declared read).
    pub fn cacheable_batches(&self) -> u64 {
        self.cacheable_batches.value()
    }

    /// Individual read calls looked up in the cache.
    pub fn lookups(&self) -> u64 {
        self.lookups.value()
    }

    /// Reads served from the cache (zero origin work).
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Reads that piggybacked on another caller's in-flight probe.
    pub fn coalesced_reads(&self) -> u64 {
        self.coalesced.value()
    }

    /// Reads that had to probe the origin.
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Probe batches sent towards the origin.
    pub fn probe_batches(&self) -> u64 {
        self.probe_batches.value()
    }

    /// Epoch bumps caused by write sightings or explicit invalidation.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.value()
    }

    /// Entries evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
    }

    /// Entries dropped because their TTL had lapsed when they were hit.
    pub fn expirations(&self) -> u64 {
        self.expirations.value()
    }

    /// Hits plus coalesced waits over all lookups: the fraction of read
    /// calls that did not cost the origin an execution.
    pub fn absorbed_ratio(&self) -> f64 {
        let lookups = self.lookups() as f64;
        if lookups == 0.0 {
            return 0.0;
        }
        (self.hits() + self.coalesced_reads()) as f64 / lookups
    }

    /// Registers the fetcher's metric cells with `registry` under the
    /// `fetcher_*` families. The three ways an entry leaves the cache
    /// (invalidation, capacity eviction, TTL expiry) share the
    /// `fetcher_drops` family, distinguished by a `reason` label.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("fetcher_batches", &[], &self.batches);
        registry.register_counter("fetcher_cacheable_batches", &[], &self.cacheable_batches);
        registry.register_counter("fetcher_lookups", &[], &self.lookups);
        registry.register_counter("fetcher_hits", &[], &self.hits);
        registry.register_counter("fetcher_coalesced_reads", &[], &self.coalesced);
        registry.register_counter("fetcher_misses", &[], &self.misses);
        registry.register_counter("fetcher_probe_batches", &[], &self.probe_batches);
        registry.register_counter(
            "fetcher_drops",
            &[("reason", "invalidated")],
            &self.invalidations,
        );
        registry.register_counter("fetcher_drops", &[("reason", "evicted")], &self.evictions);
        registry.register_counter("fetcher_drops", &[("reason", "expired")], &self.expirations);
    }
}

impl Snapshot for FetcherStats {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry);
        registry.snapshot()
    }
}

/// One cached read result, valid while its epoch snapshots match and its
/// TTL has not lapsed.
struct CacheEntry {
    value: Value,
    stored_at: Duration,
    global_epoch: u64,
    object_epoch: u64,
    object: ObjectId,
}

/// Hand-off cell between the caller that owns a probe and every caller
/// coalesced onto it. The outcome is cloned to each waiter, not taken.
struct Inflight {
    outcome: OneShot<Result<Value, ErrorEnvelope>>,
    /// Epoch snapshots taken when the owning probe was planned. A caller
    /// may only join while these still match the current epochs: a probe
    /// planned before a write may legally resolve to the pre-write value,
    /// which must never be served to a caller arriving after that write.
    global_epoch: u64,
    object_epoch: u64,
}

struct CacheState {
    entries: HashMap<Vec<u8>, CacheEntry>,
    /// Insertion order for FIFO eviction. Kept in lockstep with `entries`
    /// (one element per cached key): every removal path also drops the key
    /// here, so invalidation churn cannot grow the queue without bound.
    order: VecDeque<Vec<u8>>,
    inflight: HashMap<Vec<u8>, Arc<Inflight>>,
    global_epoch: u64,
    object_epochs: HashMap<ObjectId, u64>,
}

impl CacheState {
    fn object_epoch(&self, object: ObjectId) -> u64 {
        self.object_epochs.get(&object).copied().unwrap_or(0)
    }

    /// Removes `key` from both the entry map and the eviction queue.
    fn drop_entry(&mut self, key: &[u8]) {
        self.entries.remove(key);
        self.order.retain(|k| k.as_slice() != key);
    }

    /// Serves `key` if present, epoch-valid and within `ttl`; stale
    /// entries are dropped on sight.
    fn lookup(
        &mut self,
        key: &[u8],
        now: Duration,
        ttl: Duration,
        stats: &FetcherStats,
    ) -> Option<Value> {
        let entry = self.entries.get(key)?;
        if entry.global_epoch != self.global_epoch
            || entry.object_epoch != self.object_epoch(entry.object)
        {
            self.drop_entry(key);
            return None;
        }
        if now.saturating_sub(entry.stored_at) > ttl {
            self.drop_entry(key);
            stats.expirations.inc();
            return None;
        }
        Some(entry.value.clone())
    }

    fn insert(&mut self, key: Vec<u8>, entry: CacheEntry, capacity: usize, stats: &FetcherStats) {
        if capacity == 0 {
            return;
        }
        while self.entries.len() >= capacity {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            if self.entries.remove(&victim).is_some() {
                stats.evictions.inc();
            }
        }
        if self.entries.insert(key.clone(), entry).is_none() {
            self.order.push_back(key);
        }
    }
}

/// How one call of a cacheable batch will be satisfied.
enum Plan {
    /// Served from the cache.
    Hit(Value),
    /// Waits on a probe owned by another caller (or an earlier duplicate
    /// in this very batch).
    Join(Arc<Inflight>),
    /// This caller owns the probe; index into the probe list.
    Probe(usize),
}

/// One call this caller must execute at the origin; the epoch snapshots
/// its result may be cached under live on its [`Inflight`] slot.
struct ProbeCall {
    key: Vec<u8>,
    object: ObjectId,
    method: std::borrow::Cow<'static, str>,
    args: Vec<brmi_wire::invocation::Arg>,
    slot: Arc<Inflight>,
}

/// The read-caching tier. See the [module docs](self).
pub struct BatchFetcher {
    inner: Arc<dyn RequestHandler>,
    registry: Arc<MethodRegistry>,
    policy: ReadCachePolicy,
    time: Arc<dyn TimeSource>,
    state: Mutex<CacheState>,
    stats: Arc<FetcherStats>,
}

impl BatchFetcher {
    /// Creates a fetcher over `inner` with wall-clock TTL accounting.
    pub fn new(
        inner: Arc<dyn RequestHandler>,
        registry: Arc<MethodRegistry>,
        policy: ReadCachePolicy,
    ) -> Arc<Self> {
        Self::with_time_source(inner, registry, policy, Arc::new(WallTime::new()))
    }

    /// As [`BatchFetcher::new`] with an explicit time source (pass a
    /// [`VirtualClock`](crate::clock::VirtualClock) for deterministic TTL
    /// tests).
    pub fn with_time_source(
        inner: Arc<dyn RequestHandler>,
        registry: Arc<MethodRegistry>,
        policy: ReadCachePolicy,
        time: Arc<dyn TimeSource>,
    ) -> Arc<Self> {
        Arc::new(BatchFetcher {
            inner,
            registry,
            policy,
            time,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: VecDeque::new(),
                inflight: HashMap::new(),
                global_epoch: 0,
                object_epochs: HashMap::new(),
            }),
            stats: Arc::new(FetcherStats::default()),
        })
    }

    /// The fetcher's counters.
    pub fn stats(&self) -> Arc<FetcherStats> {
        Arc::clone(&self.stats)
    }

    /// Number of currently cached read results (test introspection).
    pub fn cached_entries(&self) -> usize {
        self.state.lock().expect("fetcher state lock").entries.len()
    }

    /// Length of the FIFO eviction queue — always equal to
    /// [`BatchFetcher::cached_entries`] (test introspection).
    pub fn eviction_queue_len(&self) -> usize {
        self.state.lock().expect("fetcher state lock").order.len()
    }

    /// Number of probes currently in flight (test introspection).
    pub fn inflight_probes(&self) -> usize {
        self.state
            .lock()
            .expect("fetcher state lock")
            .inflight
            .len()
    }

    /// Explicitly drops every cached read of `object`.
    pub fn invalidate_object(&self, object: ObjectId) {
        self.bump_epochs(&[object], false);
    }

    /// Explicitly drops every cached read.
    pub fn invalidate_all(&self) {
        self.bump_epochs(&[], true);
    }

    /// Classifies a batch; `Some(keys)` (one per call, in order) when every
    /// call may legally be served by the cache.
    fn cacheable_keys(&self, request: &BatchRequest) -> Option<Vec<Vec<u8>>> {
        if request.session.is_some() || request.keep_session {
            return None;
        }
        if !matches!(request.policy, PolicySpec::Abort | PolicySpec::Continue) {
            return None;
        }
        let mut keys = Vec::with_capacity(request.calls.len());
        for call in &request.calls {
            if call.cursor.is_some() || call.opens_cursor {
                return None;
            }
            let Target::Remote(object) = call.target else {
                return None;
            };
            if !self.registry.is_cacheable_read(&call.method) {
                return None;
            }
            keys.push(read_cache_key(object, &call.method, &call.args)?);
        }
        Some(keys)
    }

    /// Bumps epochs for the write targets in `calls` — called **before**
    /// the frame carrying them is forwarded, so a completed write is never
    /// overtaken by a stale cache insert.
    fn note_writes(&self, calls: &[InvocationData]) {
        let mut objects = Vec::new();
        let mut global = false;
        for call in calls {
            if self.registry.is_read_only(&call.method) {
                continue;
            }
            match call.target {
                Target::Remote(object) => objects.push(object),
                // The write lands on a batch-local object this tier cannot
                // name: invalidate conservatively.
                Target::Result(_) | Target::CursorElement(_, _) => global = true,
            }
        }
        if !objects.is_empty() || global {
            self.bump_epochs(&objects, global);
        }
    }

    fn bump_epochs(&self, objects: &[ObjectId], global: bool) {
        let mut state = self.state.lock().expect("fetcher state lock");
        if global {
            state.global_epoch += 1;
        }
        for object in objects {
            *state.object_epochs.entry(*object).or_insert(0) += 1;
        }
        self.stats.invalidations.inc();
    }

    /// Serves one cacheable batch: cache hits, coalesced joins, and one
    /// probe batch (run on this caller's thread) for everything else.
    fn serve_cacheable(&self, request: &BatchRequest, keys: Vec<Vec<u8>>) -> Frame {
        self.stats.cacheable_batches.inc();
        let now = self.time.now();
        let mut plans = Vec::with_capacity(request.calls.len());
        let mut probes: Vec<ProbeCall> = Vec::new();
        {
            let mut state = self.state.lock().expect("fetcher state lock");
            for (call, key) in request.calls.iter().zip(keys) {
                self.stats.lookups.inc();
                if let Some(value) = state.lookup(&key, now, self.policy.ttl, &self.stats) {
                    self.stats.hits.inc();
                    plans.push(Plan::Hit(value));
                    continue;
                }
                let Target::Remote(object) = call.target else {
                    unreachable!("cacheable_keys admits only remote targets");
                };
                if let Some(slot) = state.inflight.get(&key) {
                    // Someone (possibly an earlier duplicate in this very
                    // batch) is already fetching this key — but join only a
                    // probe planned in the current epoch. An in-flight probe
                    // that predates a write may resolve to the pre-write
                    // value; a caller planning *after* the write (perhaps
                    // its own) must probe freshly instead, or it would read
                    // stale state (read-your-writes).
                    if slot.global_epoch == state.global_epoch
                        && slot.object_epoch == state.object_epoch(object)
                    {
                        self.stats.coalesced.inc();
                        plans.push(Plan::Join(Arc::clone(slot)));
                        continue;
                    }
                }
                self.stats.misses.inc();
                let slot = Arc::new(Inflight {
                    outcome: OneShot::default(),
                    global_epoch: state.global_epoch,
                    object_epoch: state.object_epoch(object),
                });
                // May replace a stale in-flight entry: callers already
                // joined to the old slot keep their Arc and still receive
                // its result, which their (pre-write) plans permit.
                state.inflight.insert(key.clone(), Arc::clone(&slot));
                plans.push(Plan::Probe(probes.len()));
                probes.push(ProbeCall {
                    key,
                    object,
                    method: call.method.clone(),
                    args: call.args.clone(),
                    slot,
                });
            }
        }

        let probe_results = self.run_probes(probes);

        // Waits on foreign probes happen only after this caller's own
        // results are published, so duplicate keys within one batch cannot
        // deadlock on themselves.
        let outcomes: Vec<Result<Value, ErrorEnvelope>> = plans
            .into_iter()
            .map(|plan| match plan {
                Plan::Hit(value) => Ok(value),
                Plan::Probe(index) => probe_results[index].clone(),
                Plan::Join(slot) => slot.outcome.get(),
            })
            .collect();

        // Reassemble the original policy's response shape: under Abort the
        // origin would have stopped at the first error and skipped the
        // rest with its cause.
        let abort = matches!(request.policy, PolicySpec::Abort);
        let mut break_cause: Option<ErrorEnvelope> = None;
        let slots = request
            .calls
            .iter()
            .zip(outcomes)
            .map(|(call, outcome)| {
                let slot = if let Some(cause) = &break_cause {
                    SlotOutcome::Skipped(cause.clone())
                } else {
                    match outcome {
                        Ok(value) => SlotOutcome::Ok(value),
                        Err(env) => {
                            if abort {
                                break_cause = Some(env.clone());
                            }
                            SlotOutcome::Err(env)
                        }
                    }
                };
                (call.seq, slot)
            })
            .collect();
        Frame::BatchReturn(BatchResponse {
            session: None,
            slots,
            cursors: vec![],
            restarts: 0,
        })
    }

    /// Ships the owned probe calls as one `Continue` batch through `inner`
    /// on the caller's thread, publishes each result to its slot, and
    /// caches successes whose epoch snapshots still hold.
    fn run_probes(&self, probes: Vec<ProbeCall>) -> Vec<Result<Value, ErrorEnvelope>> {
        if probes.is_empty() {
            return Vec::new();
        }
        self.stats.probe_batches.inc();
        let calls = probes
            .iter()
            .enumerate()
            .map(|(index, probe)| InvocationData {
                seq: CallSeq(index as u32),
                target: Target::Remote(probe.object),
                method: probe.method.clone(),
                args: probe.args.clone(),
                cursor: None,
                opens_cursor: false,
            })
            .collect();
        let reply = self.inner.handle(Frame::BatchCall(
            BatchRequest {
                session: None,
                calls,
                policy: PolicySpec::Continue,
                keep_session: false,
            }
            .into(),
        ));

        let results: Vec<Result<Value, ErrorEnvelope>> = match reply {
            Frame::BatchReturn(response) => {
                let mut by_seq: HashMap<u32, Result<Value, ErrorEnvelope>> = response
                    .slots
                    .into_iter()
                    .map(|(seq, outcome)| {
                        let result = match outcome {
                            SlotOutcome::Ok(value) => Ok(value),
                            SlotOutcome::Err(env) | SlotOutcome::Skipped(env) => Err(env),
                            SlotOutcome::InCursor => {
                                Err(protocol_env("probe call answered as a cursor member"))
                            }
                        };
                        (seq.0, result)
                    })
                    .collect();
                (0..probes.len())
                    .map(|index| {
                        by_seq
                            .remove(&(index as u32))
                            .unwrap_or_else(|| Err(protocol_env("probe reply missing a slot")))
                    })
                    .collect()
            }
            Frame::Error(env) => vec![Err(env); probes.len()],
            other => vec![
                Err(protocol_env(&format!(
                    "unexpected probe reply frame: {}",
                    other.kind_name()
                )));
                probes.len()
            ],
        };

        {
            let mut state = self.state.lock().expect("fetcher state lock");
            let now = self.time.now();
            for (probe, result) in probes.iter().zip(&results) {
                // Release our slot — unless a post-write caller already
                // replaced it with a fresh probe, which must keep running.
                if state
                    .inflight
                    .get(&probe.key)
                    .is_some_and(|current| Arc::ptr_eq(current, &probe.slot))
                {
                    state.inflight.remove(&probe.key);
                }
                if let Ok(value) = result {
                    // Cache only if no write touched the object (or the
                    // world) since the probe was planned; errors are
                    // published to waiters but never cached.
                    if state.global_epoch == probe.slot.global_epoch
                        && state.object_epoch(probe.object) == probe.slot.object_epoch
                    {
                        state.insert(
                            probe.key.clone(),
                            CacheEntry {
                                value: value.clone(),
                                stored_at: now,
                                global_epoch: probe.slot.global_epoch,
                                object_epoch: probe.slot.object_epoch,
                                object: probe.object,
                            },
                            self.policy.capacity,
                            &self.stats,
                        );
                    }
                }
            }
        }
        for (probe, result) in probes.iter().zip(&results) {
            probe.slot.outcome.set(result.clone());
        }
        results
    }
}

fn protocol_env(message: &str) -> ErrorEnvelope {
    ErrorEnvelope::from(&RemoteError::new(RemoteErrorKind::Protocol, message))
}

impl std::fmt::Debug for BatchFetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchFetcher")
            .field("policy", &self.policy)
            .field("cached_entries", &self.cached_entries())
            .finish_non_exhaustive()
    }
}

impl RequestHandler for BatchFetcher {
    fn handle(&self, frame: Frame) -> Frame {
        // The trace envelope is transparent to the caching tier: serve or
        // watch the request exactly as if it arrived bare, but keep the
        // context on everything forwarded (so the relay's span chain
        // survives this tier) and on every reply.
        let (ctx, request) = frame.split_trace();
        match &request {
            Frame::BatchCall(call) => {
                // Keyed (retry-safe) batches bypass the read cache
                // entirely — their contract is decided by the origin's
                // reply cache, and a cache answer here would leave the
                // origin with no record to replay.
                if call.key.is_none() {
                    self.stats.batches.inc();
                    if let Some(keys) = self.cacheable_keys(&call.request) {
                        // A cache-served read never reaches the relay; the
                        // reply is re-enveloped so the client still sees
                        // its context.
                        return self.serve_cacheable(&call.request, keys).with_trace(ctx);
                    }
                }
                self.note_writes(&call.request.calls);
            }
            Frame::SuperBatchCall(members) => {
                for member in members {
                    self.note_writes(&member.request.calls);
                }
            }
            Frame::Call { target, method, .. } if !self.registry.is_read_only(method) => {
                self.bump_epochs(&[*target], false);
            }
            _ => {}
        }
        // Forwarded, keyed or not: its writes bumped the epochs *before*
        // it leaves, or a retried keyed write could be overtaken by a
        // stale read served from this tier.
        self.inner.handle(request.with_trace(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use brmi_wire::invocation::Arg;
    use brmi_wire::protocol::BatchCall;
    use brmi_wire::{InterfaceMeta, MethodMeta};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    static STORE_METHODS: &[MethodMeta] = &[
        MethodMeta {
            interface: "Store",
            name: "get",
            read_only: true,
            arity: 1,
            returns_remote: false,
        },
        MethodMeta {
            interface: "Store",
            name: "put",
            read_only: false,
            arity: 2,
            returns_remote: false,
        },
        MethodMeta {
            interface: "Store",
            name: "snapshot",
            read_only: true,
            arity: 0,
            returns_remote: true,
        },
    ];
    static STORE_META: InterfaceMeta = InterfaceMeta {
        interface: "Store",
        methods: STORE_METHODS,
    };

    fn registry() -> Arc<MethodRegistry> {
        Arc::new(MethodRegistry::of(&[&STORE_META]))
    }

    /// Origin double: `get(k)` returns `base + k` where `base` counts the
    /// puts seen so far — so a stale cached read is detectable. Counts
    /// every executed call.
    struct Origin {
        executed: AtomicU64,
        puts: AtomicU64,
        /// When set, every `get` computes its answer and *then* blocks
        /// here (to hold a probe, answer decided, in flight
        /// deterministically).
        gate: Option<Arc<Barrier>>,
        /// `get`s that have computed their answer (and are parked at or
        /// past the gate).
        arrived: AtomicU64,
        /// When non-zero, the first N batch frames answer `Frame::Error`.
        fail_first: AtomicU64,
    }

    impl Origin {
        fn new() -> Arc<Self> {
            Arc::new(Origin {
                executed: AtomicU64::new(0),
                puts: AtomicU64::new(0),
                gate: None,
                arrived: AtomicU64::new(0),
                fail_first: AtomicU64::new(0),
            })
        }

        fn gated(gate: Arc<Barrier>) -> Arc<Self> {
            Arc::new(Origin {
                executed: AtomicU64::new(0),
                puts: AtomicU64::new(0),
                gate: Some(gate),
                arrived: AtomicU64::new(0),
                fail_first: AtomicU64::new(0),
            })
        }

        fn failing_first(n: u64) -> Arc<Self> {
            let origin = Origin::new();
            origin.fail_first.store(n, Ordering::Relaxed);
            origin
        }

        fn executed(&self) -> u64 {
            self.executed.load(Ordering::Relaxed)
        }

        fn arrived(&self) -> u64 {
            self.arrived.load(Ordering::Relaxed)
        }
    }

    impl RequestHandler for Origin {
        fn handle(&self, frame: Frame) -> Frame {
            // This double has no reply cache; it executes keyed batches
            // like unkeyed ones (key handling is the RMI server's job).
            let Frame::BatchCall(BatchCall { request, .. }) = frame else {
                return Frame::Released;
            };
            if self
                .fail_first
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                return Frame::Error(ErrorEnvelope::from(&RemoteError::new(
                    RemoteErrorKind::Transport,
                    "injected origin failure",
                )));
            }
            let slots = request
                .calls
                .iter()
                .map(|call| {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    let outcome = match call.method.as_ref() {
                        "get" => {
                            let base = self.puts.load(Ordering::Relaxed) as i64;
                            if let Some(gate) = &self.gate {
                                self.arrived.fetch_add(1, Ordering::Relaxed);
                                gate.wait();
                            }
                            if let Arg::Value(Value::I64(k)) = &call.args[0] {
                                SlotOutcome::Ok(Value::I64(base + k))
                            } else {
                                // Pass-through batches may carry batch-local
                                // args this double cannot resolve.
                                SlotOutcome::Err(ErrorEnvelope::from(&RemoteError::application(
                                    "BadKey",
                                    "get takes a literal i64 key",
                                )))
                            }
                        }
                        "put" => {
                            self.puts.fetch_add(1, Ordering::Relaxed);
                            SlotOutcome::Ok(Value::Null)
                        }
                        other => SlotOutcome::Err(ErrorEnvelope::from(&RemoteError::new(
                            RemoteErrorKind::NoSuchMethod,
                            format!("no method {other}"),
                        ))),
                    };
                    (call.seq, outcome)
                })
                .collect();
            Frame::BatchReturn(BatchResponse {
                session: None,
                slots,
                cursors: vec![],
                restarts: 0,
            })
        }
    }

    fn get_call(seq: u32, object: u64, key: i64) -> InvocationData {
        InvocationData {
            seq: CallSeq(seq),
            target: Target::Remote(ObjectId(object)),
            method: "get".into(),
            args: vec![Arg::Value(Value::I64(key))],
            cursor: None,
            opens_cursor: false,
        }
    }

    fn put_call(seq: u32, object: u64) -> InvocationData {
        InvocationData {
            seq: CallSeq(seq),
            target: Target::Remote(ObjectId(object)),
            method: "put".into(),
            args: vec![Arg::Value(Value::I64(0)), Arg::Value(Value::I64(0))],
            cursor: None,
            opens_cursor: false,
        }
    }

    fn batch(calls: Vec<InvocationData>) -> Frame {
        Frame::BatchCall(
            BatchRequest {
                session: None,
                calls,
                policy: PolicySpec::Abort,
                keep_session: false,
            }
            .into(),
        )
    }

    fn expect_ok_values(frame: Frame) -> Vec<Value> {
        match frame {
            Frame::BatchReturn(response) => response
                .slots
                .into_iter()
                .map(|(_, outcome)| match outcome {
                    SlotOutcome::Ok(value) => value,
                    other => panic!("expected Ok slot, got {other:?}"),
                })
                .collect(),
            other => panic!("expected batch return, got {other:?}"),
        }
    }

    fn fetcher_over(origin: &Arc<Origin>, policy: ReadCachePolicy) -> Arc<BatchFetcher> {
        BatchFetcher::new(
            Arc::clone(origin) as Arc<dyn RequestHandler>,
            registry(),
            policy,
        )
    }

    #[test]
    fn repeated_reads_are_served_from_the_cache() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        for _ in 0..5 {
            let values = expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 7)])));
            assert_eq!(values, vec![Value::I64(7)]);
        }
        assert_eq!(origin.executed(), 1, "one probe, four hits");
        assert_eq!(fetcher.stats().hits(), 4);
        assert_eq!(fetcher.stats().misses(), 1);
        assert_eq!(fetcher.cached_entries(), 1);
    }

    #[test]
    fn distinct_keys_do_not_share_entries() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        let values =
            expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 1), get_call(1, 1, 2)])));
        assert_eq!(values, vec![Value::I64(1), Value::I64(2)]);
        // Same method+args on a different object is a different key.
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 2, 1)])));
        assert_eq!(origin.executed(), 3);
        assert_eq!(fetcher.cached_entries(), 3);
    }

    #[test]
    fn duplicate_keys_in_one_batch_probe_once() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        let values =
            expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 3), get_call(1, 1, 3)])));
        assert_eq!(values, vec![Value::I64(3), Value::I64(3)]);
        assert_eq!(origin.executed(), 1);
        assert_eq!(fetcher.stats().coalesced_reads(), 1);
    }

    #[test]
    fn a_write_through_the_fetcher_invalidates_its_object() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        assert_eq!(
            expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)]))),
            vec![Value::I64(5)]
        );
        // The write batch is not cacheable and passes through — but bumps
        // object 1's epoch first.
        fetcher.handle(batch(vec![put_call(0, 1)]));
        let values = expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        assert_eq!(values, vec![Value::I64(6)], "read-your-write holds");
        assert_eq!(origin.executed(), 3);
    }

    #[test]
    fn a_write_to_one_object_spares_other_objects() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 2, 5)])));
        fetcher.handle(batch(vec![put_call(0, 1)]));
        // Object 2's entry survived; object 1's did not.
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 2, 5)])));
        assert_eq!(fetcher.stats().hits(), 1);
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        assert_eq!(origin.executed(), 2 + 1 + 1);
    }

    #[test]
    fn explicit_invalidation_drops_entries() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        fetcher.invalidate_all();
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        assert_eq!(origin.executed(), 2);
        assert_eq!(fetcher.stats().invalidations(), 1);
    }

    #[test]
    fn ttl_expiry_is_driven_by_the_time_source() {
        let origin = Origin::new();
        let clock = VirtualClock::new();
        let fetcher = BatchFetcher::with_time_source(
            Arc::clone(&origin) as Arc<dyn RequestHandler>,
            registry(),
            ReadCachePolicy {
                ttl: Duration::from_millis(50),
                capacity: 16,
            },
            clock.clone(),
        );
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 9)])));
        clock.advance(Duration::from_millis(49));
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 9)])));
        assert_eq!(origin.executed(), 1, "within TTL: served from cache");
        clock.advance(Duration::from_millis(2));
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 9)])));
        assert_eq!(origin.executed(), 2, "past TTL: probed again");
        assert_eq!(fetcher.stats().expirations(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let origin = Origin::new();
        let fetcher = fetcher_over(
            &origin,
            ReadCachePolicy {
                ttl: Duration::from_secs(60),
                capacity: 2,
            },
        );
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 1)])));
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 2)])));
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 3)]))); // evicts key 1
        assert_eq!(fetcher.cached_entries(), 2);
        assert_eq!(fetcher.stats().evictions(), 1);
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 3)]))); // still cached
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 1)]))); // re-probed
        assert_eq!(origin.executed(), 4);
    }

    #[test]
    fn concurrent_identical_reads_collapse_to_one_probe() {
        let gate = Arc::new(Barrier::new(2));
        let origin = Origin::gated(Arc::clone(&gate));
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());

        let owner = {
            let fetcher = Arc::clone(&fetcher);
            std::thread::spawn(move || fetcher.handle(batch(vec![get_call(0, 1, 4)])))
        };
        // Wait until the owner's probe is in flight (parked on the gate).
        while fetcher.inflight_probes() == 0 {
            std::thread::yield_now();
        }
        let joiner = {
            let fetcher = Arc::clone(&fetcher);
            std::thread::spawn(move || fetcher.handle(batch(vec![get_call(0, 1, 4)])))
        };
        while fetcher.stats().coalesced_reads() == 0 {
            std::thread::yield_now();
        }
        gate.wait(); // release the origin
        assert_eq!(expect_ok_values(owner.join().unwrap()), vec![Value::I64(4)]);
        assert_eq!(
            expect_ok_values(joiner.join().unwrap()),
            vec![Value::I64(4)]
        );
        assert_eq!(origin.executed(), 1, "one origin execution for both");
        assert_eq!(fetcher.stats().misses(), 1);
        assert_eq!(fetcher.stats().coalesced_reads(), 1);
    }

    #[test]
    fn a_probe_planned_before_a_write_is_not_joined_after_it() {
        let gate = Arc::new(Barrier::new(2));
        let origin = Origin::gated(Arc::clone(&gate));
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());

        // The owner's probe computes its (pre-write) answer and parks.
        let owner = {
            let fetcher = Arc::clone(&fetcher);
            std::thread::spawn(move || fetcher.handle(batch(vec![get_call(0, 1, 4)])))
        };
        while origin.arrived() == 0 {
            std::thread::yield_now();
        }
        // A write to the same object completes while the probe is parked.
        fetcher.handle(batch(vec![put_call(0, 1)]));
        // The writer now reads the same key. It must NOT join the stale
        // probe: it probes freshly (the second `get` reaches the barrier
        // and releases both).
        let fresh = expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 4)])));
        assert_eq!(fresh, vec![Value::I64(5)], "read-your-write holds");
        let stale = expect_ok_values(owner.join().unwrap());
        assert_eq!(
            stale,
            vec![Value::I64(4)],
            "the pre-write probe keeps its answer for its own (older) plan"
        );
        assert_eq!(fetcher.stats().coalesced_reads(), 0, "no stale join");
        assert_eq!(fetcher.stats().misses(), 2);
        assert_eq!(origin.executed(), 3, "two gets and one put");
        // Only the fresh result may have entered the cache.
        assert_eq!(fetcher.cached_entries(), 1);
        assert_eq!(fetcher.inflight_probes(), 0);
        assert_eq!(
            expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 4)]))),
            vec![Value::I64(5)]
        );
        assert_eq!(fetcher.stats().hits(), 1);
    }

    #[test]
    fn invalidation_churn_keeps_the_eviction_queue_in_lockstep() {
        let origin = Origin::new();
        let fetcher = fetcher_over(
            &origin,
            ReadCachePolicy {
                ttl: Duration::from_secs(60),
                capacity: 8,
            },
        );
        // Read → write-invalidate → re-read on one hot key: each cycle
        // drops the stale entry and re-inserts the key, which previously
        // left one dead key per cycle in the eviction queue (it only
        // drained at capacity, which this workload never reaches).
        for _ in 0..50 {
            expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 7)])));
            fetcher.handle(batch(vec![put_call(0, 1)]));
        }
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 7)])));
        assert_eq!(fetcher.cached_entries(), 1);
        assert_eq!(fetcher.eviction_queue_len(), 1, "no dead keys accumulate");
    }

    #[test]
    fn probe_failures_reach_waiters_but_are_never_cached() {
        let origin = Origin::failing_first(1);
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        match fetcher.handle(batch(vec![get_call(0, 1, 2)])) {
            Frame::BatchReturn(response) => {
                assert!(matches!(response.slots[0].1, SlotOutcome::Err(_)));
            }
            other => panic!("expected batch return, got {other:?}"),
        }
        assert_eq!(fetcher.cached_entries(), 0);
        assert_eq!(fetcher.inflight_probes(), 0, "failed probe was released");
        // The next attempt probes again and succeeds.
        assert_eq!(
            expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 2)]))),
            vec![Value::I64(2)]
        );
        assert_eq!(origin.executed(), 1);
    }

    #[test]
    fn abort_shape_is_reassembled_after_fanned_out_probes() {
        // Probes go upstream with a Continue policy (so reads coalesced
        // from other clients still run); the original Abort shape must be
        // reassembled afterwards: first error, then Skipped with its cause.
        struct FirstCallFails;
        impl RequestHandler for FirstCallFails {
            fn handle(&self, frame: Frame) -> Frame {
                let Frame::BatchCall(BatchCall { request, .. }) = frame else {
                    return Frame::Released;
                };
                let slots = request
                    .calls
                    .iter()
                    .map(|call| {
                        let outcome = if call.seq.0 == 0 {
                            SlotOutcome::Err(ErrorEnvelope::from(&RemoteError::application(
                                "ReadFailed",
                                "boom",
                            )))
                        } else {
                            SlotOutcome::Ok(Value::I64(1))
                        };
                        (call.seq, outcome)
                    })
                    .collect();
                Frame::BatchReturn(BatchResponse {
                    session: None,
                    slots,
                    cursors: vec![],
                    restarts: 0,
                })
            }
        }
        let fetcher = BatchFetcher::new(
            Arc::new(FirstCallFails),
            registry(),
            ReadCachePolicy::default(),
        );
        let reply = fetcher.handle(batch(vec![get_call(0, 1, 1), get_call(1, 1, 2)]));
        match reply {
            Frame::BatchReturn(response) => {
                assert!(matches!(response.slots[0].1, SlotOutcome::Err(_)));
                assert!(
                    matches!(response.slots[1].1, SlotOutcome::Skipped(_)),
                    "Abort semantics: later slots skip with the root cause"
                );
            }
            other => panic!("expected batch return, got {other:?}"),
        }
    }

    #[test]
    fn non_cacheable_batches_pass_through_untouched() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        // Session continuation.
        let with_session = Frame::BatchCall(
            BatchRequest {
                session: None,
                calls: vec![get_call(0, 1, 1)],
                policy: PolicySpec::Abort,
                keep_session: true,
            }
            .into(),
        );
        fetcher.handle(with_session);
        // Custom policy.
        let custom = Frame::BatchCall(
            BatchRequest {
                session: None,
                calls: vec![get_call(0, 1, 1)],
                policy: PolicySpec::Custom {
                    default: brmi_wire::invocation::ExceptionAction::Break,
                    rules: vec![],
                },
                keep_session: false,
            }
            .into(),
        );
        fetcher.handle(custom);
        // Remote-returning read.
        let remote_read = batch(vec![InvocationData {
            seq: CallSeq(0),
            target: Target::Remote(ObjectId(1)),
            method: "snapshot".into(),
            args: vec![],
            cursor: None,
            opens_cursor: false,
        }]);
        fetcher.handle(remote_read);
        // Batch-local argument.
        let local_arg = batch(vec![InvocationData {
            seq: CallSeq(1),
            target: Target::Remote(ObjectId(1)),
            method: "get".into(),
            args: vec![Arg::Result(CallSeq(0))],
            cursor: None,
            opens_cursor: false,
        }]);
        fetcher.handle(local_arg);
        assert_eq!(fetcher.stats().cacheable_batches(), 0);
        assert_eq!(fetcher.cached_entries(), 0);
        assert_eq!(origin.executed(), 4, "all four were forwarded verbatim");
    }

    #[test]
    fn keyed_writes_invalidate_but_are_never_served_from_cache() {
        use brmi_wire::protocol::IdemKey;
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        let keyed = |seq: u64, calls: Vec<InvocationData>| {
            Frame::BatchCall(BatchCall {
                key: Some(IdemKey {
                    client_id: 1,
                    seq,
                    acked: 0,
                }),
                request: BatchRequest {
                    session: None,
                    calls,
                    policy: PolicySpec::Abort,
                    keep_session: false,
                },
            })
        };
        // Warm the cache through the unkeyed path.
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        // A keyed *read* forwards to the origin instead of hitting the
        // cache: the origin must see the key to record a replayable reply.
        expect_ok_values(fetcher.handle(keyed(0, vec![get_call(0, 1, 5)])));
        assert_eq!(origin.executed(), 2, "keyed read was not served locally");
        // A keyed write (as a transparent retry would re-send it) bumps
        // the epoch before forwarding: the cached read is dropped.
        fetcher.handle(keyed(1, vec![put_call(0, 1)]));
        assert_eq!(
            expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)]))),
            vec![Value::I64(6)],
            "read-your-keyed-write holds"
        );
        assert_eq!(fetcher.stats().cacheable_batches(), 2);
        assert_eq!(fetcher.stats().invalidations(), 1);
    }

    #[test]
    fn plain_rmi_writes_also_invalidate() {
        let origin = Origin::new();
        let fetcher = fetcher_over(&origin, ReadCachePolicy::default());
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        fetcher.handle(Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "put".into(),
            args: vec![],
        });
        expect_ok_values(fetcher.handle(batch(vec![get_call(0, 1, 5)])));
        assert_eq!(origin.executed(), 2, "the cached read was invalidated");
    }
}
