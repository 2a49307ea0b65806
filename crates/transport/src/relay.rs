//! Multi-tier batch relay: an edge node that re-batches many clients.
//!
//! Explicit batching amortizes round-trip latency for *one* client; the
//! natural scale-out is a batching **topology**: an edge tier close to the
//! clients accepts their batch frames, coalesces compatible in-flight
//! batches from different connections into one upstream *super-batch*
//! ([`Frame::SuperBatchCall`]), ships it to the origin in a single round
//! trip, and demultiplexes the per-batch replies back to the originating
//! connections.
//!
//! ```text
//!   client ──batch──┐
//!   client ──batch──┤   ┌────────────┐  super-batch   ┌────────┐
//!   client ──batch──┼──▶│ BatchRelay │ ─────────────▶ │ origin │
//!   client ──batch──┘   └────────────┘  (one RT for   └────────┘
//!                          edge tier     many batches)
//! ```
//!
//! # Semantics
//!
//! The origin executes every inner batch of a super-batch independently and
//! in order, exactly as if each had arrived in its own round trip — so
//! per-batch sessions, exception policies, abort cursors and remote-result
//! identity are all preserved, and relayed execution is observably
//! identical to direct execution (the property tests in `brmi-apps` assert
//! this over random programs). Because each downstream connection has at
//! most one request outstanding, per-client ordering is preserved by
//! construction.
//!
//! Delivery is per-mode:
//!
//! * **At-most-once** (plain batch frames): the relay never retries
//!   upstream. If the upstream round trip fails mid-super-batch (drop,
//!   disconnect), every member batch fails with that transport error at
//!   its client's `flush` — the origin either executed the whole
//!   super-batch or never saw it, and nothing is replayed.
//! * **Retry-safe exactly-once visible** (keyed batch frames,
//!   [`Frame::is_retry_safe`]): keyed members coalesce into super-batches
//!   of their own — a [`Frame::SuperBatchCall`] is retry-safe only when
//!   every member carries a key — and never share an upstream frame with
//!   unkeyed ones. With the upstream link wrapped in a
//!   [`RetryTransport`](crate::retry::RetryTransport)
//!   (`BatchRelay::new(RetryTransport::over(upstream, retry), policy)`) a
//!   failed keyed flush is redialed and re-sent; the origin's reply cache deduplicates each *member* key
//!   (not the super-batch as a whole), so a re-send — even one the relay
//!   regrouped differently — can never double-execute a member.
//!
//! # Flush policy
//!
//! [`RelayPolicy`] bounds how long a batch may wait to be coalesced: a
//! super-batch is flushed as soon as the pending call count reaches
//! `max_coalesced_calls`, or once the oldest pending batch has waited
//! `max_delay`. Time comes from a pluggable [`TimeSource`] — wall clock
//! ([`WallTime`]) by default, or a
//! [`VirtualClock`](crate::clock::VirtualClock) so tests drive the delay
//! path deterministically.
//!
//! One flusher thread times the window. On Linux it sets its own timer
//! slack to 1 ns when it starts, so a wall-clock window closes within a
//! few microseconds of its deadline instead of up to the default 50 µs
//! slack late; the `relay_window_overshoot_nanos` histogram
//! ([`RelayStats::window_overshoot`]) records how late each timed window
//! closed. An arrival wakes the flusher only when it changes the flush
//! decision: into an empty queue, on reaching the call budget, or when an
//! adaptive relay retunes its window. Any other arrival rides the window
//! already running.
//!
//! # Serving the edge
//!
//! [`BatchRelay`] is a [`RequestHandler`]; any transport can front it. The
//! downstream handler *blocks* until its batch's super-batch completes —
//! parked on a [`OneShot`] that the relay fills with its reply — so the
//! edge is served by the epoll reactor with **worker-pool dispatch**
//! ([`ReactorConfig::dispatch_workers`](crate::reactor::ReactorConfig)
//! sized to the peak number of concurrently blocked batches): frame IO
//! stays on the event-loop threads while the flush-waits park on the
//! dispatch workers, so one edge serves any number of downstream
//! connections. In tests the in-process transport fronts it as well.
//! Non-batch frames (plain calls, registry lookups, session releases, DGC
//! traffic) are forwarded upstream one-for-one.
//!
//! The flusher does not wait out the upstream round trip. It
//! [submits](Transport::submit) each group's frame and hands the pending
//! reply to the group's first member: that member's handler, parked
//! anyway, waits for the reply and fills every member's slot, its own
//! included. Over a split-phase upstream
//! ([`MuxClient`](crate::mux::MuxClient)) the flusher is back at the queue
//! as soon as the frame is written, so several groups — and both halves of
//! a mixed keyed/unkeyed group — are in flight at once, bounded by the
//! downstream handlers parked on them; no thread is added. Over a blocking
//! upstream `submit` runs the whole round trip, as before.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use brmi_obs::{
    Counter, Gauge, Histogram, MetricsSnapshot, Registry, Snapshot, TimeSource, Tracer, WallTime,
};
use brmi_wire::invocation::ErrorEnvelope;
use brmi_wire::protocol::{BatchCall, Frame, TraceCtx};
use brmi_wire::{RemoteError, RemoteErrorKind};

use crate::slot::OneShot;
use crate::{Pending, RequestHandler, Transport};

/// Knobs of the keyed read cache a
/// [`BatchFetcher`](crate::fetcher::BatchFetcher) layers in front of a
/// relay, passed to [`BatchFetcher::new`](crate::fetcher::BatchFetcher::new).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCachePolicy {
    /// How long a cached read result stays servable after it was stored.
    pub ttl: Duration,
    /// Maximum number of cached entries; the oldest-inserted entry is
    /// evicted first. `0` disables storing (in-flight dedup still works).
    pub capacity: usize,
}

impl Default for ReadCachePolicy {
    fn default() -> Self {
        ReadCachePolicy {
            ttl: Duration::from_millis(100),
            capacity: 1024,
        }
    }
}

/// Adaptive coalescing-window mode for [`RelayPolicy`]: instead of the
/// fixed full-wave `max_delay` constant, the relay tunes its flush delay
/// from the observed arrival rate, trading a little queueing delay for
/// upstream round trips only while traffic is dense enough to pay for it.
///
/// # The model
///
/// The bench cost model (`bench/src/model.rs`) prices a workload as
/// `T = R·(RTT + c_call) + B·(1/bw + c_byte) + …` — every upstream round
/// trip costs a fixed [`AdaptivePolicy::upstream_cost`] `U` (the
/// `RTT + c_call` term) regardless of how many batches share it. With
/// batches arriving every `a` seconds (EWMA-estimated interarrival) and a
/// flush window `d`, each flush carries `1 + d/a` batches, so the
/// per-batch cost is `U/(1 + d/a)` in amortized round trips plus `d/2` in
/// average added queueing delay. Minimizing `U·a/(a + d) + d/2` over `d`
/// gives the closed form
///
/// ```text
/// d* = sqrt(2·U·a) − a      (clamped to [min_delay, max_delay])
/// ```
///
/// Dense traffic (`a → 0`) opens the window as `sqrt(2·U·a)`; sparse
/// traffic (`a ≥ 2·U`) drives `d*` to zero — a lone batch ships at once,
/// since no company is coming that would repay the wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Modeled fixed cost of one upstream round trip (the `RTT + c_call`
    /// term of the bench cost model) that coalescing amortizes.
    pub upstream_cost: Duration,
    /// Lower clamp for the tuned delay.
    pub min_delay: Duration,
    /// Upper clamp for the tuned delay; also the delay used until the
    /// first interarrival sample exists.
    pub max_delay: Duration,
    /// EWMA weight of each new interarrival sample, in per-mille
    /// (`200` ⇒ `ewma = 0.2·sample + 0.8·ewma`). Values over `1000` are
    /// treated as `1000` (no smoothing).
    pub ewma_per_mille: u16,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            upstream_cost: Duration::from_micros(500),
            min_delay: Duration::ZERO,
            max_delay: Duration::from_millis(5),
            ewma_per_mille: 200,
        }
    }
}

impl AdaptivePolicy {
    /// The tuned flush delay (nanoseconds) for an EWMA interarrival
    /// estimate of `ewma_interarrival_nanos`: `sqrt(2·U·a) − a`, clamped
    /// to `[min_delay, max_delay]`. Pure — the closed-form minimizer of
    /// the per-batch cost described in the type docs.
    pub fn tuned_delay_nanos(&self, ewma_interarrival_nanos: f64) -> u64 {
        let upstream = self.upstream_cost.as_nanos() as f64;
        let interarrival = ewma_interarrival_nanos.max(0.0);
        let optimum = (2.0 * upstream * interarrival).sqrt() - interarrival;
        let clamped = optimum
            .max(self.min_delay.as_nanos() as f64)
            .min(self.max_delay.as_nanos() as f64);
        clamped as u64
    }
}

/// When the relay flushes a super-batch upstream. Build one with
/// [`RelayPolicy::builder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayPolicy {
    /// Flush once this many calls (summed over pending batches) are
    /// waiting. A single batch larger than the budget still ships alone.
    pub max_coalesced_calls: usize,
    /// Flush once the oldest pending batch has waited this long, even if
    /// the call budget is not reached. With [`RelayPolicy::adaptive`]
    /// set, the tuned delay replaces this constant (which then only
    /// serves as the fallback for non-adaptive relays).
    pub max_delay: Duration,
    /// Arrival-rate-adaptive flush window; `None` (the default) keeps the
    /// fixed `max_delay` constant.
    pub adaptive: Option<AdaptivePolicy>,
}

impl Default for RelayPolicy {
    fn default() -> Self {
        RelayPolicy {
            max_coalesced_calls: 256,
            max_delay: Duration::from_millis(2),
            adaptive: None,
        }
    }
}

impl RelayPolicy {
    /// Starts a builder from the default policy.
    pub fn builder() -> RelayPolicyBuilder {
        RelayPolicyBuilder {
            policy: RelayPolicy::default(),
        }
    }
}

/// Builder for [`RelayPolicy`].
#[derive(Debug, Clone)]
pub struct RelayPolicyBuilder {
    policy: RelayPolicy,
}

impl RelayPolicyBuilder {
    /// Sets the coalescing call budget per upstream flush.
    pub fn max_coalesced_calls(mut self, calls: usize) -> Self {
        self.policy.max_coalesced_calls = calls;
        self
    }

    /// Sets the longest a batch may wait at the edge for company.
    pub fn max_delay(mut self, delay: Duration) -> Self {
        self.policy.max_delay = delay;
        self
    }

    /// Switches the flush window to arrival-rate-adaptive tuning.
    pub fn adaptive(mut self, adaptive: AdaptivePolicy) -> Self {
        self.policy.adaptive = Some(adaptive);
        self
    }

    /// Finishes the policy.
    pub fn build(self) -> RelayPolicy {
        self.policy
    }
}

/// Cumulative relay counters.
///
/// Backed by [`brmi_obs`] metric cells since the observability migration:
/// the getters are thin shims, and [`RelayStats::register_metrics`]
/// attaches the same cells (families `relay_*`) to a [`Registry`] for
/// unified snapshots. The relay additionally keeps a
/// `relay_coalesce_wait_nanos` histogram of how long each batch waited at
/// the edge for company — the coalesce-wait half of the paper's latency
/// story, exact under virtual time — and a `relay_window_overshoot_nanos`
/// histogram of how far past its deadline each timed window closed.
#[derive(Debug, Default)]
pub struct RelayStats {
    batches: Counter,
    keyed_batches: Counter,
    super_batches: Counter,
    coalesced_batches: Counter,
    forwarded: Counter,
    largest_group: Gauge,
    coalesce_wait: Histogram,
    window_overshoot: Histogram,
    adaptive_delay: Gauge,
}

impl RelayStats {
    /// Downstream batch frames accepted for relaying (keyed and unkeyed).
    pub fn batches_relayed(&self) -> u64 {
        self.batches.value()
    }

    /// Downstream batch frames that carried an idempotency key — the
    /// retry-safe subset of [`RelayStats::batches_relayed`].
    pub fn keyed_batches_relayed(&self) -> u64 {
        self.keyed_batches.value()
    }

    /// Upstream flushes performed (super-batches plus singleton batches).
    pub fn upstream_flushes(&self) -> u64 {
        self.super_batches.value()
    }

    /// Batches that shipped sharing an upstream round trip with at least
    /// one other batch.
    pub fn coalesced_batches(&self) -> u64 {
        self.coalesced_batches.value()
    }

    /// Non-batch frames forwarded upstream one-for-one.
    pub fn forwarded_frames(&self) -> u64 {
        self.forwarded.value()
    }

    /// Largest number of batches coalesced into one upstream round trip.
    pub fn largest_group(&self) -> u64 {
        self.largest_group.value().max(0) as u64
    }

    /// Histogram of how long batches waited at the edge before their
    /// group flushed (nanoseconds, [`TimeSource`] time).
    pub fn coalesce_wait(&self) -> brmi_obs::HistogramSnapshot {
        self.coalesce_wait.snapshot()
    }

    /// Histogram of how late the flush window closed: the flush instant
    /// minus the window's deadline, for every flush the timer closed
    /// (nanoseconds, [`TimeSource`] time). Flushes that a full call budget
    /// or shutdown triggered are not counted.
    pub fn window_overshoot(&self) -> brmi_obs::HistogramSnapshot {
        self.window_overshoot.snapshot()
    }

    /// The flush window currently in force, in nanoseconds. Only moves
    /// when the relay runs with an [`AdaptivePolicy`]: it starts at the
    /// policy's `max_delay` and retunes on every arrival after the first.
    /// Zero on non-adaptive relays.
    pub fn adaptive_delay_nanos(&self) -> u64 {
        self.adaptive_delay.value().max(0) as u64
    }

    fn record_group(&self, group: usize) {
        self.super_batches.inc();
        if group > 1 {
            self.coalesced_batches.add(group as u64);
        }
        self.largest_group.set_max(group as i64);
    }

    /// Registers the relay's metric cells with `registry` under the
    /// `relay_*` families.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("relay_batches", &[], &self.batches);
        registry.register_counter("relay_keyed_batches", &[], &self.keyed_batches);
        registry.register_counter("relay_upstream_flushes", &[], &self.super_batches);
        registry.register_counter("relay_coalesced_batches", &[], &self.coalesced_batches);
        registry.register_counter("relay_forwarded_frames", &[], &self.forwarded);
        registry.register_gauge("relay_largest_group", &[], &self.largest_group);
        registry.register_histogram("relay_coalesce_wait_nanos", &[], &self.coalesce_wait);
        registry.register_histogram("relay_window_overshoot_nanos", &[], &self.window_overshoot);
        registry.register_gauge("relay_adaptive_delay_nanos", &[], &self.adaptive_delay);
    }
}

impl Snapshot for RelayStats {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry);
        registry.snapshot()
    }
}

/// One downstream batch waiting to be coalesced.
struct PendingBatch {
    /// The batch and the idempotency key it arrived under, if any
    /// (retry-safe mode); keyed and unkeyed batches never share an
    /// upstream frame.
    call: BatchCall,
    /// Budget weight: call count, but at least one so empty batches (pure
    /// session traffic) still make progress toward a flush.
    weight: usize,
    /// When this batch was enqueued ([`TimeSource`] time) — feeds the
    /// `relay_coalesce_wait_nanos` histogram at flush.
    enqueued_at: Duration,
    /// The relay's own span for this batch when it arrived traced: minted
    /// at enqueue (child of the client's span), recorded as
    /// `relay.coalesce` at flush, and carried upstream as the envelope
    /// context.
    trace: Option<TraceCtx>,
    /// Tracer timestamp at enqueue (the span's start).
    trace_start: Duration,
    /// Hand-off cell between the blocked downstream handler and the
    /// flusher.
    reply: Arc<OneShot<Delivery>>,
}

/// What a downstream handler parked in `relay_batch` is woken with.
enum Delivery {
    /// Its batch's reply.
    Reply(Frame),
    /// Its batch leads a group whose upstream frame is in flight: the
    /// handler waits out the round trip and answers every member.
    Lead(InFlight),
}

/// A group whose upstream frame has been submitted.
struct InFlight {
    reply: Pending,
    /// Every member's reply cell and trace context, in upstream order;
    /// the leader is the first.
    members: Vec<(Arc<OneShot<Delivery>>, Option<TraceCtx>)>,
}

impl InFlight {
    /// Waits for the upstream reply and hands each member its share. A
    /// single batch travelled as a plain [`Frame::BatchCall`], so its reply
    /// is passed through whatever it is; a super-batch's reply is split
    /// per member, and anything but a well-formed one fails every member
    /// the same way at its client's flush.
    fn answer(self) {
        let InFlight { reply, members } = self;
        let reply = reply.wait().map(|reply| reply.split_trace().1);
        let env = match reply {
            Ok(frame) if members.len() == 1 => {
                let (slot, trace) = members.into_iter().next().expect("one member");
                slot.set(Delivery::Reply(frame.with_trace(trace)));
                return;
            }
            Ok(Frame::SuperBatchReturn(replies)) if replies.len() == members.len() => {
                for ((slot, trace), reply) in members.into_iter().zip(replies) {
                    let frame = match reply {
                        Ok(response) => Frame::BatchReturn(response),
                        Err(env) => Frame::Error(env),
                    };
                    slot.set(Delivery::Reply(frame.with_trace(trace)));
                }
                return;
            }
            // The origin rejected the super-batch as a whole.
            Ok(Frame::Error(env)) => env,
            Ok(other) => ErrorEnvelope::from(&RemoteError::new(
                RemoteErrorKind::Protocol,
                format!("unexpected super-batch reply frame: {}", other.kind_name()),
            )),
            // The relay itself never retries: the origin may or may not
            // have executed the group, and replaying unkeyed calls could
            // double-apply them. Keyed groups get their retries from a
            // retry-wrapped upstream link (before this error surfaces);
            // once it gives up, the members fail.
            Err(err) => ErrorEnvelope::from(&err),
        };
        for (slot, trace) in members {
            slot.set(Delivery::Reply(Frame::Error(env.clone()).with_trace(trace)));
        }
    }
}

struct Queue {
    pending: VecDeque<PendingBatch>,
    pending_weight: usize,
    /// When the oldest pending batch was enqueued ([`TimeSource`]
    /// time); `None` while the queue is empty.
    oldest_at: Option<Duration>,
    /// EWMA of the batch interarrival time in nanoseconds (adaptive mode);
    /// `0.0` doubles as "no sample yet", so the first sample initializes
    /// the average instead of blending with it.
    ewma_interarrival_nanos: f64,
    /// [`TimeSource`] timestamp of the most recent batch arrival, in
    /// nanoseconds (adaptive mode).
    last_arrival_nanos: Option<u64>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    arrivals: Condvar,
    policy: RelayPolicy,
    time: Arc<dyn TimeSource>,
    upstream: Arc<dyn Transport>,
    stats: Arc<RelayStats>,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

impl Shared {
    fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// The edge node: coalesces downstream batch frames into upstream
/// super-batches. See the [module docs](self).
pub struct BatchRelay {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl BatchRelay {
    /// Creates a relay over `upstream` with wall-clock delay accounting and
    /// starts its flusher thread.
    pub fn new(upstream: Arc<dyn Transport>, policy: RelayPolicy) -> Arc<Self> {
        Self::with_time_source(upstream, policy, Arc::new(WallTime::new()))
    }

    /// As [`BatchRelay::new`] with an explicit time source (pass a
    /// [`VirtualClock`](crate::clock::VirtualClock) for deterministic delay
    /// tests).
    pub fn with_time_source(
        upstream: Arc<dyn Transport>,
        policy: RelayPolicy,
        time: Arc<dyn TimeSource>,
    ) -> Arc<Self> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                pending_weight: 0,
                oldest_at: None,
                ewma_interarrival_nanos: 0.0,
                last_arrival_nanos: None,
                shutdown: false,
            }),
            arrivals: Condvar::new(),
            policy: RelayPolicy {
                max_coalesced_calls: policy.max_coalesced_calls.max(1),
                ..policy
            },
            time,
            upstream,
            stats: Arc::new(RelayStats::default()),
            tracer: RwLock::new(None),
        });
        // Until the first interarrival sample the adaptive window sits at
        // its upper clamp — the conservative fixed-delay behaviour.
        if let Some(adaptive) = shared.policy.adaptive {
            shared
                .stats
                .adaptive_delay
                .set(adaptive.max_delay.as_nanos() as i64);
        }
        let flusher_shared = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("brmi-relay-flush".into())
            .spawn(move || flusher_loop(&flusher_shared))
            .expect("spawn relay flusher");
        Arc::new(BatchRelay {
            shared,
            flusher: Mutex::new(Some(flusher)),
        })
    }

    /// The relay's counters.
    pub fn stats(&self) -> Arc<RelayStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Registers this relay's metric cells with `registry` (families
    /// `relay_*`; see [`RelayStats::register_metrics`]).
    pub fn register_metrics(&self, registry: &Registry) {
        self.shared.stats.register_metrics(registry);
    }

    /// Installs a tracer: every traced downstream batch then records a
    /// `relay.coalesce` span (enqueue → flush, a child of the client's
    /// span) and its upstream frame carries the relay's span as the new
    /// envelope context. Without a tracer, traced batches still relay —
    /// the client's context is forwarded upstream untouched.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self
            .shared
            .tracer
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(tracer);
    }

    /// Enqueues one downstream batch (keyed or not) and blocks until its
    /// super-batch completes. `client_ctx` is the trace context the batch
    /// arrived enveloped in, if any.
    fn relay_batch(&self, client_ctx: Option<TraceCtx>, call: BatchCall) -> Frame {
        let reply = Arc::new(OneShot::default());
        let keyed = call.key.is_some();
        let tracer = self.shared.tracer();
        // The relay's own span: minted at enqueue so the coalesce wait is
        // part of it; without a tracer the client's context passes through
        // so downstream tiers still see the trace.
        let (trace, trace_start) = match (&tracer, client_ctx) {
            (Some(tracer), Some(ctx)) => (Some(tracer.child(ctx)), tracer.now()),
            (None, ctx) => (ctx, Duration::ZERO),
            (Some(_), None) => (None, Duration::ZERO),
        };
        let wake_flusher = {
            let mut queue = self.shared.queue.lock().expect("relay queue lock");
            if queue.shutdown {
                return Frame::Error(ErrorEnvelope::from(&relay_down()));
            }
            let was_empty = queue.pending.is_empty();
            let weight = call.request.calls.len().max(1);
            queue.pending_weight += weight;
            let now = self.shared.time.now();
            if queue.oldest_at.is_none() {
                queue.oldest_at = Some(now);
            }
            // Adaptive mode: fold this arrival into the interarrival EWMA
            // and publish the retuned window before the batch becomes
            // visible, so the flusher never reads a stale delay for it.
            if let Some(adaptive) = self.shared.policy.adaptive {
                let now_nanos = now.as_nanos() as u64;
                if let Some(last) = queue.last_arrival_nanos {
                    let sample = now_nanos.saturating_sub(last) as f64;
                    let alpha = f64::from(adaptive.ewma_per_mille.min(1000)) / 1000.0;
                    queue.ewma_interarrival_nanos = if queue.ewma_interarrival_nanos == 0.0 {
                        sample
                    } else {
                        alpha * sample + (1.0 - alpha) * queue.ewma_interarrival_nanos
                    };
                    let tuned = adaptive.tuned_delay_nanos(queue.ewma_interarrival_nanos);
                    self.shared.stats.adaptive_delay.set(tuned as i64);
                }
                queue.last_arrival_nanos = Some(now_nanos);
            }
            queue.pending.push_back(PendingBatch {
                call,
                weight,
                enqueued_at: now,
                trace,
                trace_start,
                reply: Arc::clone(&reply),
            });
            arrival_wakes_flusher(&self.shared.policy, was_empty, queue.pending_weight)
        };
        self.shared.stats.batches.inc();
        if keyed {
            self.shared.stats.keyed_batches.inc();
        }
        if wake_flusher {
            self.shared.arrivals.notify_one();
        }
        loop {
            match reply.take() {
                Delivery::Reply(frame) => return frame,
                // This batch leads its group: the upstream round trip is
                // waited out here, on a thread that is parked anyway, so
                // the flusher is already back at the queue. The leader's
                // own reply lands in its slot like every other member's.
                Delivery::Lead(flight) => flight.answer(),
            }
        }
    }

    /// Number of batches currently waiting to be coalesced.
    pub fn pending_batches(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("relay queue lock")
            .pending
            .len()
    }

    /// Forwards one non-batch frame upstream one-for-one.
    fn forward(&self, frame: Frame) -> Frame {
        self.shared.stats.forwarded.inc();
        match self.shared.upstream.request(frame) {
            Ok(reply) => reply,
            Err(err) => Frame::Error(ErrorEnvelope::from(&err)),
        }
    }

    /// Stops the flusher after submitting every pending batch upstream;
    /// groups still in flight are answered by their leaders as their
    /// replies arrive. New batch frames are rejected afterwards.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("relay queue lock");
            if queue.shutdown {
                return;
            }
            queue.shutdown = true;
        }
        self.shared.arrivals.notify_all();
        if let Some(handle) = self.flusher.lock().expect("relay flusher lock").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BatchRelay {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for BatchRelay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRelay")
            .field("policy", &self.shared.policy)
            .field("pending_batches", &self.pending_batches())
            .finish_non_exhaustive()
    }
}

impl RequestHandler for BatchRelay {
    fn handle(&self, frame: Frame) -> Frame {
        // A traced batch relays exactly like a bare one; the envelope
        // context feeds the relay's own `relay.coalesce` span.
        let (ctx, request) = frame.split_trace();
        match request {
            Frame::BatchCall(call) => self.relay_batch(ctx, call),
            // Everything else — plain calls, registry traffic, session
            // releases, DGC frames, super-batches from a downstream relay
            // — passes through one-for-one, still enveloped if it arrived
            // so (keyed frames among them are retried by a retry-wrapped
            // upstream link).
            other => self.forward(other.with_trace(ctx)),
        }
    }
}

/// Whether an arrival must wake the flusher: only when it changes the
/// flusher's decision. An empty queue means the flusher waits with no
/// deadline; a full call budget means it must flush now; an adaptive
/// relay has just retuned the window the flusher is timing.
///
/// Any other arrival joins a queue whose flusher already sleeps toward the
/// oldest batch's deadline — or is flushing and rechecks the queue under
/// the lock before it sleeps again — so skipping the notify loses no
/// wake-up: the new batch ships with the window that is already running.
fn arrival_wakes_flusher(policy: &RelayPolicy, was_empty: bool, pending_weight: usize) -> bool {
    was_empty || pending_weight >= policy.max_coalesced_calls || policy.adaptive.is_some()
}

fn relay_down() -> RemoteError {
    RemoteError::new(RemoteErrorKind::Transport, "relay is shut down")
}

/// Takes the next super-batch group off the queue: batches in arrival
/// order until the call budget is filled (always at least one).
fn take_group(queue: &mut Queue, budget: usize, now: Duration) -> Vec<PendingBatch> {
    let mut group = Vec::new();
    let mut weight = 0usize;
    while let Some(next) = queue.pending.front() {
        if !group.is_empty() && weight + next.weight > budget {
            break;
        }
        weight += next.weight;
        let batch = queue.pending.pop_front().expect("front checked");
        queue.pending_weight -= batch.weight;
        group.push(batch);
    }
    // Batches left behind start a fresh delay window: they become the
    // oldest the moment this group ships.
    queue.oldest_at = if queue.pending.is_empty() {
        None
    } else {
        Some(now)
    };
    group
}

/// The flush window in force: the tuned delay the enqueue path maintains
/// when the relay is adaptive, else the fixed `max_delay` constant.
fn effective_delay(shared: &Shared) -> Duration {
    match shared.policy.adaptive {
        Some(_) => Duration::from_nanos(shared.stats.adaptive_delay.value().max(0) as u64),
        None => shared.policy.max_delay,
    }
}

fn flusher_loop(shared: &Shared) {
    // The window must close on its deadline, not up to 50 µs later.
    #[cfg(target_os = "linux")]
    crate::reactor::sys::tighten_timer_slack();
    loop {
        let group = {
            let mut queue = shared.queue.lock().expect("relay queue lock");
            loop {
                if queue.pending.is_empty() {
                    if queue.shutdown {
                        return;
                    }
                    queue = shared.arrivals.wait(queue).expect("relay queue lock");
                    continue;
                }
                let now = shared.time.now();
                let waited = queue
                    .oldest_at
                    .map_or(Duration::ZERO, |oldest| now.saturating_sub(oldest));
                // Recomputed every pass: in adaptive mode each arrival may
                // retune the window while the flusher is mid-wait.
                let max_delay = effective_delay(shared);
                if queue.shutdown || queue.pending_weight >= shared.policy.max_coalesced_calls {
                    break take_group(&mut queue, shared.policy.max_coalesced_calls, now);
                }
                if waited >= max_delay {
                    shared
                        .stats
                        .window_overshoot
                        .record_nanos(waited - max_delay);
                    break take_group(&mut queue, shared.policy.max_coalesced_calls, now);
                }
                let slice = shared.time.wait_slice(max_delay - waited);
                let (guard, _) = shared
                    .arrivals
                    .wait_timeout(queue, slice)
                    .expect("relay queue lock");
                queue = guard;
            }
        };
        flush_group(shared, group);
    }
}

/// Ships one group upstream. Keyed and unkeyed members never share an
/// upstream frame (their delivery modes differ), so a mixed group splits
/// into one flush per mode; over a split-phase upstream both halves are in
/// flight at once.
fn flush_group(shared: &Shared, group: Vec<PendingBatch>) {
    let (keyed, unkeyed): (Vec<_>, Vec<_>) = group.into_iter().partition(|b| b.call.key.is_some());
    flush_uniform(shared, unkeyed);
    flush_uniform(shared, keyed);
}

/// Ships one all-keyed or all-unkeyed group. A single batch travels as a
/// plain [`Frame::BatchCall`] — the relay is then a transparent proxy; two
/// or more travel as one [`Frame::SuperBatchCall`]. Either way each member
/// keeps the key it arrived under.
///
/// The frame is [submitted](Transport::submit), and the pending reply is
/// handed to the group's first member, whose downstream handler waits for
/// it and answers the group. So the flusher never waits out an upstream
/// round trip (unless the upstream is a blocking one), and the groups in
/// flight are bounded by the handlers parked on them: no thread is added.
fn flush_uniform(shared: &Shared, group: Vec<PendingBatch>) {
    if group.is_empty() {
        return;
    }
    shared.stats.record_group(group.len());
    // Per-member accounting at the moment the group ships: the coalesce
    // wait lands in the histogram, and each traced member's relay span
    // (enqueue → flush) is recorded against the tracer's sink.
    let tracer = shared.tracer();
    let flushed_at = shared.time.now();
    for member in &group {
        shared
            .stats
            .coalesce_wait
            .record_nanos(flushed_at.saturating_sub(member.enqueued_at));
        if let (Some(tracer), Some(ctx)) = (&tracer, member.trace) {
            tracer.record(ctx, "relay.coalesce", member.trace_start, tracer.now());
        }
    }
    // The upstream frame carries the first traced member's context (the
    // representative: one envelope per round trip, like one frame per
    // super-batch). Replies are re-enveloped per member.
    let group_ctx = group.iter().find_map(|b| b.trace);
    // Split each pending batch into its request (moved onto the wire) and
    // its reply slot plus trace context (kept for demultiplexing) — no
    // cloning on the hot path.
    let mut members = Vec::with_capacity(group.len());
    let mut calls: Vec<BatchCall> = group
        .into_iter()
        .map(|b| {
            members.push((b.reply, b.trace));
            b.call
        })
        .collect();
    let frame = if calls.len() == 1 {
        Frame::BatchCall(calls.pop().expect("one call"))
    } else {
        Frame::SuperBatchCall(calls)
    };
    let reply = shared.upstream.submit(frame.with_trace(group_ctx));
    let leader = Arc::clone(&members[0].0);
    leader.set(Delivery::Lead(InFlight { reply, members }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::fault::{FaultPlan, FaultyTransport};
    use crate::retry::{RetryPolicy, RetryTransport};
    use crate::sim::SimTransport;
    use brmi_wire::invocation::{
        BatchRequest, BatchResponse, CallSeq, InvocationData, PolicySpec, SlotOutcome, Target,
    };
    use brmi_wire::protocol::IdemKey;
    use brmi_wire::{ObjectId, Value};
    use std::sync::Barrier;

    /// Upstream test double: answers batch frames with one `Ok(I32(seq))`
    /// per call and records what arrived.
    struct RecordingOrigin {
        frames: Mutex<Vec<Frame>>,
    }

    impl RecordingOrigin {
        fn new() -> Arc<Self> {
            Arc::new(RecordingOrigin {
                frames: Mutex::new(Vec::new()),
            })
        }

        fn frames(&self) -> Vec<Frame> {
            self.frames.lock().unwrap().clone()
        }

        fn respond(request: &BatchRequest) -> BatchResponse {
            BatchResponse {
                session: None,
                slots: request
                    .calls
                    .iter()
                    .map(|call| (call.seq, SlotOutcome::Ok(Value::I32(call.seq.0 as i32))))
                    .collect(),
                cursors: vec![],
                restarts: 0,
            }
        }
    }

    impl RequestHandler for RecordingOrigin {
        fn handle(&self, frame: Frame) -> Frame {
            self.frames.lock().unwrap().push(frame.clone());
            match frame {
                Frame::BatchCall(call) => {
                    Frame::BatchReturn(RecordingOrigin::respond(&call.request))
                }
                Frame::SuperBatchCall(members) => Frame::SuperBatchReturn(
                    members
                        .iter()
                        .map(|member| Ok(RecordingOrigin::respond(&member.request)))
                        .collect(),
                ),
                Frame::Call { .. } => Frame::Return(Value::Str("forwarded".into())),
                _ => Frame::Released,
            }
        }
    }

    /// Upstream test double for the split-phase path: answers like
    /// [`RecordingOrigin`] (or fails with `failure`), but `submit` holds
    /// each reply until [`HeldUpstream::release`]; submits after the
    /// release are answered at once.
    struct HeldUpstream {
        origin: Arc<RecordingOrigin>,
        failure: Option<&'static str>,
        state: Mutex<Held>,
        submitted: Condvar,
    }

    type Reply = Result<Frame, RemoteError>;

    #[derive(Default)]
    struct Held {
        submits: usize,
        released: bool,
        replies: Vec<(Reply, Arc<OneShot<Reply>>)>,
    }

    impl HeldUpstream {
        fn new(origin: Arc<RecordingOrigin>, failure: Option<&'static str>) -> Arc<Self> {
            Arc::new(HeldUpstream {
                origin,
                failure,
                state: Mutex::new(Held::default()),
                submitted: Condvar::new(),
            })
        }

        /// Whether `n` frames were submitted within two seconds.
        fn saw_submits(&self, n: usize) -> bool {
            let state = self.state.lock().unwrap();
            let (state, _) = self
                .submitted
                .wait_timeout_while(state, Duration::from_secs(2), |state| state.submits < n)
                .unwrap();
            state.submits >= n
        }

        fn submits(&self) -> usize {
            self.state.lock().unwrap().submits
        }

        fn release(&self) {
            let held = {
                let mut state = self.state.lock().unwrap();
                state.released = true;
                std::mem::take(&mut state.replies)
            };
            for (reply, slot) in held {
                slot.set(reply);
            }
        }
    }

    impl Transport for HeldUpstream {
        fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
            self.submit(frame).wait()
        }

        fn submit(&self, frame: Frame) -> Pending {
            let reply = match self.failure {
                Some(message) => Err(RemoteError::transport(message)),
                None => Ok(self.origin.handle(frame)),
            };
            let slot = Arc::new(OneShot::default());
            let mut state = self.state.lock().unwrap();
            state.submits += 1;
            if state.released {
                slot.set(reply);
            } else {
                state.replies.push((reply, Arc::clone(&slot)));
            }
            self.submitted.notify_all();
            Pending::held(slot)
        }
    }

    fn batch_frame(calls: usize) -> Frame {
        keyed_batch_frame(None, calls)
    }

    fn keyed_batch_frame(key_seq: Option<u64>, calls: usize) -> Frame {
        let key = key_seq.map(|seq| IdemKey {
            client_id: 7,
            seq,
            acked: 0,
        });
        let request = BatchRequest {
            session: None,
            calls: (0..calls)
                .map(|i| InvocationData {
                    seq: CallSeq(i as u32),
                    target: Target::Remote(ObjectId(1)),
                    method: "noop".into(),
                    args: vec![],
                    cursor: None,
                    opens_cursor: false,
                })
                .collect(),
            policy: PolicySpec::Abort,
            keep_session: false,
        };
        Frame::BatchCall(BatchCall { key, request })
    }

    fn expect_batch_return(frame: Frame, calls: usize) {
        match frame {
            Frame::BatchReturn(response) => assert_eq!(response.slots.len(), calls),
            other => panic!("expected batch return, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_batches_coalesce_into_one_super_batch() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let relay = BatchRelay::new(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(4 * 3)
                .max_delay(Duration::from_secs(30))
                .build(),
        );

        let gate = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let relay = Arc::clone(&relay);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    relay.handle(batch_frame(3))
                })
            })
            .collect();
        for handle in handles {
            expect_batch_return(handle.join().unwrap(), 3);
        }

        let frames = origin.frames();
        let supers = frames
            .iter()
            .filter(|f| matches!(f, Frame::SuperBatchCall(_)))
            .count();
        let singles = frames
            .iter()
            .filter(|f| matches!(f, Frame::BatchCall(_)))
            .count();
        // All four batches arrive before the budget fills, so the origin
        // sees strictly fewer round trips than batches; with the full
        // budget available, at least one super-batch formed.
        assert!(supers >= 1, "expected coalescing, got {frames:?}");
        assert!(supers + singles < 4, "no round trips were saved");
        assert_eq!(relay.stats().batches_relayed(), 4);
        assert!(relay.stats().largest_group() >= 2);
    }

    #[test]
    fn lone_batch_ships_as_plain_batch_call_after_delay() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let relay = BatchRelay::new(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(1000)
                .max_delay(Duration::from_millis(5))
                .build(),
        );
        expect_batch_return(relay.handle(batch_frame(2)), 2);
        let frames = origin.frames();
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0], Frame::BatchCall(_)));
        assert_eq!(relay.stats().upstream_flushes(), 1);
        assert_eq!(relay.stats().coalesced_batches(), 0);
    }

    #[test]
    fn virtual_clock_drives_the_delay_flush_deterministically() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let clock = VirtualClock::new();
        let relay = BatchRelay::with_time_source(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(1000)
                .max_delay(Duration::from_millis(10))
                .build(),
            clock.clone(),
        );
        let worker = {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || relay.handle(batch_frame(1)))
        };
        // Until the virtual clock passes max_delay the batch stays queued.
        while relay.pending_batches() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            relay.pending_batches(),
            1,
            "flushed before virtual time moved"
        );
        clock.advance(Duration::from_millis(11));
        expect_batch_return(worker.join().unwrap(), 1);
        assert_eq!(origin.frames().len(), 1);
    }

    #[test]
    fn oversized_batch_still_ships_alone() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let relay = BatchRelay::new(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(2)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        expect_batch_return(relay.handle(batch_frame(9)), 9);
        assert_eq!(origin.frames().len(), 1);
    }

    #[test]
    fn non_batch_frames_pass_through() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let relay = BatchRelay::new(upstream, RelayPolicy::default());
        let reply = relay.handle(Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "m".into(),
            args: vec![],
        });
        assert_eq!(reply, Frame::Return(Value::Str("forwarded".into())));
        assert_eq!(relay.stats().forwarded_frames(), 1);
        assert_eq!(relay.stats().batches_relayed(), 0);
    }

    #[test]
    fn upstream_fault_fails_every_member_batch_without_retry() {
        let origin = RecordingOrigin::new();
        let upstream =
            FaultyTransport::new(SimTransport::in_process(origin.clone()), FaultPlan::Always);
        let relay = BatchRelay::new(
            Arc::clone(&upstream) as Arc<dyn Transport>,
            RelayPolicy::builder()
                .max_coalesced_calls(2 * 2)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let gate = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let relay = Arc::clone(&relay);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    relay.handle(batch_frame(2))
                })
            })
            .collect();
        for handle in handles {
            match handle.join().unwrap() {
                Frame::Error(env) => assert_eq!(env.kind, "transport"),
                other => panic!("expected error frame, got {other:?}"),
            }
        }
        // Nothing reached the origin, and the relay attempted each group
        // exactly once (no replay after a failure).
        assert!(origin.frames().is_empty());
        assert_eq!(upstream.injected(), upstream.attempts());
    }

    #[test]
    fn keyed_batches_coalesce_into_a_keyed_super_batch() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let relay = BatchRelay::new(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(4 * 3)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let gate = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|seq| {
                let relay = Arc::clone(&relay);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    relay.handle(keyed_batch_frame(Some(seq), 3))
                })
            })
            .collect();
        for handle in handles {
            expect_batch_return(handle.join().unwrap(), 3);
        }
        let frames = origin.frames();
        // Every upstream frame stayed keyed — no member was downgraded to
        // the at-most-once frames — and at least one keyed super-batch
        // formed.
        assert!(frames.iter().all(|f| f.is_retry_safe()), "{frames:?}");
        assert!(
            frames.iter().any(|f| matches!(f, Frame::SuperBatchCall(_))),
            "expected keyed coalescing, got {frames:?}"
        );
        assert_eq!(relay.stats().keyed_batches_relayed(), 4);
    }

    #[test]
    fn mixed_groups_split_by_delivery_mode() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        // A huge delay plus a tiny budget: both arrivals queue, then one
        // group containing a keyed and an unkeyed batch flushes at once.
        let relay = BatchRelay::new(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(2)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let gate = Arc::new(Barrier::new(2));
        let keyed_worker = {
            let relay = Arc::clone(&relay);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                relay.handle(keyed_batch_frame(Some(0), 1))
            })
        };
        let unkeyed_worker = {
            let relay = Arc::clone(&relay);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                relay.handle(batch_frame(1))
            })
        };
        expect_batch_return(keyed_worker.join().unwrap(), 1);
        expect_batch_return(unkeyed_worker.join().unwrap(), 1);
        // Whatever the grouping, no upstream frame may mix modes: a frame
        // is retry-safe exactly when its members are keyed, all or none.
        let mut keyed_members = 0;
        for frame in origin.frames() {
            let members = match &frame {
                Frame::BatchCall(call) => std::slice::from_ref(call),
                Frame::SuperBatchCall(members) => members.as_slice(),
                other => panic!("unexpected upstream frame {other:?}"),
            };
            for member in members {
                assert_eq!(member.key.is_some(), frame.is_retry_safe(), "{frame:?}");
                keyed_members += usize::from(member.key.is_some());
            }
        }
        assert_eq!(keyed_members, 1);
        assert_eq!(relay.stats().batches_relayed(), 2);
        assert_eq!(relay.stats().keyed_batches_relayed(), 1);
    }

    #[test]
    fn keyed_batches_survive_upstream_faults_with_a_retry_wrapped_link() {
        let origin = RecordingOrigin::new();
        // Drop the first two upstream attempts; the retry-wrapped link
        // re-sends the keyed flush until it lands.
        let upstream = FaultyTransport::new(
            SimTransport::in_process(origin.clone()),
            FaultPlan::FirstN(2),
        );
        let relay = BatchRelay::new(
            RetryTransport::over(Arc::clone(&upstream) as _, RetryPolicy::immediate(5)),
            RelayPolicy::builder()
                .max_coalesced_calls(2)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let gate = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|seq| {
                let relay = Arc::clone(&relay);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    relay.handle(keyed_batch_frame(Some(seq), 1))
                })
            })
            .collect();
        for handle in handles {
            expect_batch_return(handle.join().unwrap(), 1);
        }
        assert_eq!(upstream.injected(), 2, "two attempts were dropped");
        assert!(
            origin.frames().iter().all(|f| f.is_retry_safe()),
            "only keyed frames reached the origin"
        );
    }

    #[test]
    fn adaptive_tuned_delay_matches_the_closed_form() {
        // U = 500µs, no clamping except at zero: d* = sqrt(2·U·a) − a.
        let adaptive = AdaptivePolicy::default();
        let cases: [(f64, u64); 6] = [
            (50_000.0, 173_606),
            (100_000.0, 216_227),
            (250_000.0, 250_000),
            (500_000.0, 207_106),
            (1_000_000.0, 0),
            (2_000_000.0, 0),
        ];
        for (interarrival, expected) in cases {
            let tuned = adaptive.tuned_delay_nanos(interarrival);
            assert!(
                (tuned as i64 - expected as i64).abs() <= 1,
                "d*({interarrival}) = {tuned}, expected ~{expected}"
            );
        }
        // The clamps bite on both ends.
        let clamped = AdaptivePolicy {
            min_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
            ..adaptive
        };
        assert_eq!(clamped.tuned_delay_nanos(2_000_000.0), 10_000);
        assert_eq!(clamped.tuned_delay_nanos(100_000.0), 100_000);
    }

    #[test]
    fn adaptive_policy_converges_under_virtual_clock() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let clock = VirtualClock::new();
        // ewma_per_mille = 1000: each sample replaces the estimate, so the
        // tuned window is an exact function of the last interarrival gap.
        let relay = BatchRelay::with_time_source(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(1000)
                .adaptive(AdaptivePolicy {
                    upstream_cost: Duration::from_millis(1),
                    min_delay: Duration::ZERO,
                    max_delay: Duration::from_millis(10),
                    ewma_per_mille: 1000,
                })
                .build(),
            clock.clone(),
        );
        let stats = relay.stats();
        // Before any sample the window sits at its upper clamp.
        assert_eq!(stats.adaptive_delay_nanos(), 10_000_000);

        let first = {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || relay.handle(batch_frame(1)))
        };
        while stats.batches_relayed() < 1 {
            std::thread::yield_now();
        }
        // One arrival is no sample; the window has not moved, so the batch
        // is still parked waiting for company.
        assert_eq!(stats.adaptive_delay_nanos(), 10_000_000);

        clock.advance(Duration::from_micros(500));
        let second = {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || relay.handle(batch_frame(1)))
        };
        while stats.batches_relayed() < 2 {
            std::thread::yield_now();
        }
        // a = 500µs, U = 1ms: d* = sqrt(2·U·a) − a = 1ms − 500µs = 500µs
        // exactly — and the oldest batch has now waited exactly that long,
        // so the pair flushes as one super-batch without more clock moves.
        assert_eq!(stats.adaptive_delay_nanos(), 500_000);
        expect_batch_return(first.join().unwrap(), 1);
        expect_batch_return(second.join().unwrap(), 1);
        assert_eq!(stats.upstream_flushes(), 1, "the pair shipped together");
        assert_eq!(stats.coalesced_batches(), 2);

        // Sparse traffic: a 10ms gap drives the optimum negative, clamped
        // to zero — a lone batch ships immediately, no waiting.
        clock.advance(Duration::from_millis(10));
        let third = {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || relay.handle(batch_frame(1)))
        };
        expect_batch_return(third.join().unwrap(), 1);
        assert_eq!(stats.adaptive_delay_nanos(), 0);
        assert_eq!(stats.upstream_flushes(), 2);
    }

    #[test]
    fn shutdown_drains_pending_and_rejects_new_batches() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let relay = BatchRelay::new(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(1000)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let worker = {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || relay.handle(batch_frame(1)))
        };
        while relay.pending_batches() == 0 {
            std::thread::yield_now();
        }
        relay.shutdown();
        // The queued batch was drained, not dropped.
        expect_batch_return(worker.join().unwrap(), 1);
        match relay.handle(batch_frame(1)) {
            Frame::Error(env) => assert_eq!(env.kind, "transport"),
            other => panic!("expected error after shutdown, got {other:?}"),
        }
    }

    #[test]
    fn the_flusher_keeps_a_second_group_in_flight() {
        let origin = RecordingOrigin::new();
        let upstream = HeldUpstream::new(origin.clone(), None);
        // Each two-call batch fills the budget, so each is a group of its
        // own that flushes as soon as it arrives.
        let relay = BatchRelay::new(
            Arc::clone(&upstream) as Arc<dyn Transport>,
            RelayPolicy::builder()
                .max_coalesced_calls(2)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let relay = Arc::clone(&relay);
                std::thread::spawn(move || relay.handle(batch_frame(2)))
            })
            .collect();
        // A flusher that waited out the first round trip would never
        // submit the second group while the first reply is held.
        let both_in_flight = upstream.saw_submits(2);
        upstream.release();
        for worker in workers {
            expect_batch_return(worker.join().unwrap(), 2);
        }
        assert!(both_in_flight, "the second group waited for the first");
        assert_eq!(relay.stats().upstream_flushes(), 2);
    }

    #[test]
    fn a_mixed_group_sends_both_halves_before_either_reply() {
        let origin = RecordingOrigin::new();
        let upstream = HeldUpstream::new(origin.clone(), None);
        let relay = BatchRelay::new(
            Arc::clone(&upstream) as Arc<dyn Transport>,
            RelayPolicy::builder()
                .max_coalesced_calls(2)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let gate = Arc::new(Barrier::new(2));
        let workers: Vec<_> = [Some(0), None]
            .into_iter()
            .map(|key| {
                let relay = Arc::clone(&relay);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    relay.handle(keyed_batch_frame(key, 1))
                })
            })
            .collect();
        let both_sent = upstream.saw_submits(2);
        upstream.release();
        for worker in workers {
            expect_batch_return(worker.join().unwrap(), 1);
        }
        assert!(both_sent, "one half waited for the other's reply");
        let frames = origin.frames();
        assert_eq!(frames.len(), 2, "{frames:?}");
        assert_eq!(frames.iter().filter(|f| f.is_retry_safe()).count(), 1);
    }

    #[test]
    fn a_failed_pending_fails_every_member_once() {
        let origin = RecordingOrigin::new();
        let upstream = HeldUpstream::new(origin.clone(), Some("link lost"));
        let relay = BatchRelay::new(
            Arc::clone(&upstream) as Arc<dyn Transport>,
            RelayPolicy::builder()
                .max_coalesced_calls(2 * 2)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let gate = Arc::new(Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let relay = Arc::clone(&relay);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    relay.handle(batch_frame(2))
                })
            })
            .collect();
        assert!(upstream.saw_submits(1));
        upstream.release();
        for worker in workers {
            match worker.join().unwrap() {
                Frame::Error(env) => {
                    assert_eq!(env.kind, "transport");
                    assert!(env.message.contains("link lost"), "{env:?}");
                }
                other => panic!("expected error frame, got {other:?}"),
            }
        }
        // One super-batch, submitted once and never re-sent.
        assert_eq!(upstream.submits(), 1);
        assert_eq!(relay.stats().upstream_flushes(), 1);
        assert_eq!(relay.stats().largest_group(), 2);
    }

    #[test]
    fn shutdown_with_a_group_in_flight_still_answers_it() {
        let origin = RecordingOrigin::new();
        let upstream = HeldUpstream::new(origin.clone(), None);
        let relay = BatchRelay::new(
            Arc::clone(&upstream) as Arc<dyn Transport>,
            RelayPolicy::builder()
                .max_coalesced_calls(1)
                .max_delay(Duration::from_secs(30))
                .build(),
        );
        let worker = {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || relay.handle(batch_frame(1)))
        };
        assert!(upstream.saw_submits(1));
        // The flusher is back at the queue, so shutdown returns while the
        // group's reply is still held.
        let stopper = {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || relay.shutdown())
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !stopper.is_finished() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stopped_first = stopper.is_finished();
        upstream.release();
        stopper.join().unwrap();
        expect_batch_return(worker.join().unwrap(), 1);
        assert!(stopped_first, "shutdown waited out the round trip");
    }

    #[test]
    fn only_arrivals_that_change_the_flush_decision_wake_the_flusher() {
        let fixed = RelayPolicy::builder().max_coalesced_calls(4).build();
        assert!(arrival_wakes_flusher(&fixed, true, 1), "empty queue");
        assert!(
            !arrival_wakes_flusher(&fixed, false, 3),
            "inside the window"
        );
        assert!(arrival_wakes_flusher(&fixed, false, 4), "budget reached");
        let adaptive = RelayPolicy::builder()
            .max_coalesced_calls(4)
            .adaptive(AdaptivePolicy::default())
            .build();
        assert!(arrival_wakes_flusher(&adaptive, false, 2), "window retuned");
    }

    #[test]
    fn an_arrival_inside_the_window_ships_with_the_running_window() {
        let origin = RecordingOrigin::new();
        let upstream = Arc::new(SimTransport::in_process(origin.clone()));
        let clock = VirtualClock::new();
        let relay = BatchRelay::with_time_source(
            upstream,
            RelayPolicy::builder()
                .max_coalesced_calls(1000)
                .max_delay(Duration::from_millis(10))
                .build(),
            clock.clone(),
        );
        let spawn = |n| {
            let worker = {
                let relay = Arc::clone(&relay);
                std::thread::spawn(move || relay.handle(batch_frame(1)))
            };
            while relay.pending_batches() < n {
                std::thread::yield_now();
            }
            worker
        };
        let first = spawn(1);
        clock.advance(Duration::from_millis(4));
        // The second arrival sends no notify: the flusher already sleeps
        // toward the first batch's deadline.
        let second = spawn(2);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            relay.pending_batches(),
            2,
            "flushed before the window ended"
        );
        clock.advance(Duration::from_millis(7));
        expect_batch_return(first.join().unwrap(), 1);
        expect_batch_return(second.join().unwrap(), 1);
        let frames = origin.frames();
        assert!(
            matches!(frames.as_slice(), [Frame::SuperBatchCall(members)] if members.len() == 2),
            "{frames:?}"
        );
        // Virtual time stood still between the deadline passing and the
        // flush: the window closed exactly 1 ms late.
        let overshoot = relay.stats().window_overshoot();
        assert_eq!((overshoot.count, overshoot.sum), (1, 1_000_000));
    }
}
