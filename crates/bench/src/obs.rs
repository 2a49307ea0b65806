//! Observability sweep (`BENCH_obs.json`): the traced three-tier rig —
//! client → coalescing relay → simulated-network origin — run under one
//! `VirtualClock`, so every span timestamp, histogram quantile, and
//! counter is identical on every run and can be committed as a baseline.
//!
//! Two questions are answered per batch size:
//!
//! 1. **What does the trace see?** Span counts and the `client.flush`
//!    latency quantiles, computed by feeding simulated span durations
//!    through the deterministic [`Histogram`] — the same data path a
//!    production deployment would use, minus the nondeterministic clock.
//! 2. **What does tracing cost?** The same workload runs once fully
//!    instrumented and once bare (no tracer, no envelope). Round trips
//!    and executed calls must match exactly; the `Frame::Traced`
//!    envelope may add at most a few percent of wire bytes.

use std::sync::Arc;
use std::time::Duration;

use brmi::BatchExecutor;
use brmi_apps::noop::{brmi_noops, NoopServer, NoopSkeleton};
use brmi_obs::{Histogram, MetricsSnapshot, Registry, Snapshot, TraceCollector, Tracer};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::clock::VirtualClock;
use brmi_transport::inproc::InProcTransport;
use brmi_transport::profile::NetworkProfile;
use brmi_transport::relay::{BatchRelay, RelayPolicy};
use brmi_transport::sim::SimTransport;
use brmi_transport::Transport;

use crate::MultiFigure;

/// Batch sizes swept by the observability benchmark.
pub const OBS_SWEEP: [u32; 4] = [1, 4, 16, 64];

/// Flushes per sweep point: enough observations for stable quantiles
/// while keeping the sweep instant.
const FLUSHES: usize = 8;

/// Maximum trace-envelope byte overhead tolerated by the no-op guard,
/// in percent of bare wire bytes, once a flush carries
/// [`OVERHEAD_PCT_MIN_BATCH`] calls or more. Below that the envelope's
/// fixed cost dominates a near-empty frame and only the absolute bound
/// applies.
pub const MAX_ENVELOPE_OVERHEAD_PCT: f64 = 5.0;

/// Batch size from which the percentage bound applies.
pub const OVERHEAD_PCT_MIN_BATCH: u32 = 16;

/// Absolute bound: the envelope (frame tag + trace id + span id
/// varints) may add at most this many bytes per traced flush, at any
/// batch size.
pub const MAX_ENVELOPE_BYTES_PER_FLUSH: u64 = 16;

/// Everything one rig run measures.
struct ObsRun {
    spans: u64,
    flush_p50: Duration,
    flush_p99: Duration,
    sim_requests: u64,
    sim_bytes: u64,
    noop_calls: u64,
    metrics: MetricsSnapshot,
    waterfall: String,
}

/// One sweep point: the instrumented run's trace-side numbers plus the
/// instrumented-vs-bare overhead comparison.
pub struct ObsPoint {
    /// Calls per client flush (and the relay's coalescing budget).
    pub batch_size: u32,
    /// Spans recorded by the collector (three tiers × flushes).
    pub spans: u64,
    /// `client.flush` median, from the deterministic histogram.
    pub flush_p50: Duration,
    /// `client.flush` p99, from the deterministic histogram.
    pub flush_p99: Duration,
    /// Simulated round trips (lookup + one per flush).
    pub sim_requests: u64,
    /// Wire bytes with the trace envelope on every batch frame.
    pub traced_bytes: u64,
    /// Wire bytes for the identical workload without tracing.
    pub bare_bytes: u64,
    /// Envelope overhead in percent of bare bytes.
    pub overhead_pct: f64,
    /// Unified registry snapshot of the instrumented run (all tiers).
    pub metrics: MetricsSnapshot,
    /// Rendered waterfall of the run's first trace.
    pub waterfall: String,
}

/// Builds the rig, runs `FLUSHES` batches of `batch_size` no-ops, and
/// returns the measurements. When `instrumented` is false no tracer is
/// installed anywhere, so the wire carries no envelope.
fn run_rig(batch_size: u32, instrumented: bool) -> ObsRun {
    let clock = VirtualClock::new();
    let collector = TraceCollector::new();
    let tracer = Tracer::new(clock.clone(), collector.clone());

    // Origin tier: batching RMI server at the far end of the simulated
    // network.
    let origin = RmiServer::new();
    let executor = BatchExecutor::install(&origin);
    let noop = NoopServer::new();
    origin
        .bind("noop", NoopSkeleton::remote_arc(noop.clone()))
        .expect("fresh origin bind");
    if instrumented {
        origin.set_tracer(tracer.clone());
    }

    // The simulated link charges time for every byte the relay ships
    // upstream — including the trace envelope, which is exactly what the
    // overhead guard wants to price.
    let sim = Arc::new(SimTransport::new(
        origin,
        NetworkProfile::lan_1gbps(),
        clock.clone(),
    ));
    let sim_stats = sim.stats();

    // Relay tier: coalescing budget equal to the client's batch size, so
    // each flush ships immediately and needs no clock advance.
    let relay = BatchRelay::with_time_source(
        sim as Arc<dyn Transport>,
        RelayPolicy::builder()
            .max_coalesced_calls(batch_size as usize)
            .max_delay(Duration::from_secs(30))
            .build(),
        clock.clone(),
    );
    if instrumented {
        relay.set_tracer(tracer.clone());
    }

    // Every tier's stats land in one registry, tracing or not: the
    // counters exist either way, which is what makes the instrumented
    // and bare runs comparable.
    let registry = Registry::new();
    executor.register_metrics(&registry);
    relay.register_metrics(&registry);
    sim_stats.register_metrics(&registry, "sim");
    registry.register_counter("trace_spans", &[], &tracer.span_counter());

    let mut conn = Connection::new(Arc::new(InProcTransport::new(relay.clone())));
    if instrumented {
        conn = conn.with_tracer(tracer.clone());
    }
    let root: RemoteRef = conn.lookup("noop").expect("lookup");
    for _ in 0..FLUSHES {
        brmi_noops(&conn, &root, batch_size as usize).expect("flush");
    }

    // The `client.flush` spans carry the simulated round-trip cost; feed
    // them through the histogram to get deterministic quantiles.
    let flush_latency = Histogram::new();
    for span in collector.spans() {
        if span.name == "client.flush" {
            flush_latency.record_nanos(span.end - span.start);
        }
    }
    let snapshot = flush_latency.snapshot();
    let waterfall = collector
        .trace_ids()
        .first()
        .map(|&id| collector.render_waterfall(id))
        .unwrap_or_default();

    ObsRun {
        spans: collector.spans().len() as u64,
        flush_p50: Duration::from_nanos(snapshot.quantile(0.5)),
        flush_p99: Duration::from_nanos(snapshot.quantile(0.99)),
        sim_requests: sim_stats.requests(),
        sim_bytes: sim_stats.bytes_sent() + sim_stats.bytes_received(),
        noop_calls: noop.calls(),
        metrics: registry.snapshot(),
        waterfall,
    }
}

/// Runs one sweep point instrumented and bare, checking the overhead
/// contract along the way.
fn run_point(batch_size: u32) -> ObsPoint {
    let traced = run_rig(batch_size, true);
    let bare = run_rig(batch_size, false);

    // Instrumentation must be semantically invisible: same round trips,
    // same executed calls, no spans on the bare run.
    assert_eq!(traced.sim_requests, bare.sim_requests);
    assert_eq!(traced.noop_calls, bare.noop_calls);
    assert_eq!(bare.spans, 0, "bare run must record no spans");

    let overhead_pct =
        (traced.sim_bytes as f64 - bare.sim_bytes as f64) * 100.0 / bare.sim_bytes as f64;
    ObsPoint {
        batch_size,
        spans: traced.spans,
        flush_p50: traced.flush_p50,
        flush_p99: traced.flush_p99,
        sim_requests: traced.sim_requests,
        traced_bytes: traced.sim_bytes,
        bare_bytes: bare.sim_bytes,
        overhead_pct,
        metrics: traced.metrics,
        waterfall: traced.waterfall,
    }
}

/// Sweeps the given batch sizes and shapes the results as a figure.
pub fn obs_sweep_with(batch_sizes: &[u32]) -> (MultiFigure, Vec<ObsPoint>) {
    let points: Vec<ObsPoint> = batch_sizes.iter().map(|&b| run_point(b)).collect();
    let figure = MultiFigure {
        id: "figO1",
        title: "Observability: trace spans, client-flush quantiles, and envelope overhead \
                vs batch size"
            .to_owned(),
        x_label: "calls per batch",
        x: batch_sizes.to_vec(),
        series: vec![
            (
                "TraceSpans",
                points.iter().map(|p| p.spans as f64).collect(),
            ),
            (
                "ClientFlushP50Ms",
                points
                    .iter()
                    .map(|p| p.flush_p50.as_secs_f64() * 1e3)
                    .collect(),
            ),
            (
                "ClientFlushP99Ms",
                points
                    .iter()
                    .map(|p| p.flush_p99.as_secs_f64() * 1e3)
                    .collect(),
            ),
            (
                "SimRoundTrips",
                points.iter().map(|p| p.sim_requests as f64).collect(),
            ),
            (
                "TracedWireBytes",
                points.iter().map(|p| p.traced_bytes as f64).collect(),
            ),
            (
                "EnvelopeOverheadPct",
                points.iter().map(|p| p.overhead_pct).collect(),
            ),
        ],
    };
    (figure, points)
}

/// Default sweep over [`OBS_SWEEP`].
pub fn obs_observability_figure() -> (MultiFigure, Vec<ObsPoint>) {
    obs_sweep_with(&OBS_SWEEP)
}

/// Asserts the no-op overhead contract on every point: instrumentation
/// never changes what executes (checked inside `run_point`), the
/// envelope adds at most [`MAX_ENVELOPE_BYTES_PER_FLUSH`] bytes per
/// flush, and — once a flush carries [`OVERHEAD_PCT_MIN_BATCH`] calls —
/// stays under [`MAX_ENVELOPE_OVERHEAD_PCT`] of bare wire bytes.
pub fn assert_overhead_within_budget(points: &[ObsPoint]) {
    for point in points {
        let extra = point.traced_bytes.saturating_sub(point.bare_bytes);
        assert!(
            point.traced_bytes >= point.bare_bytes
                && extra <= MAX_ENVELOPE_BYTES_PER_FLUSH * FLUSHES as u64,
            "batch {}: envelope added {} bytes over {} flushes, budget {} per flush \
             ({} traced vs {} bare bytes)",
            point.batch_size,
            extra,
            FLUSHES,
            MAX_ENVELOPE_BYTES_PER_FLUSH,
            point.traced_bytes,
            point.bare_bytes,
        );
        if point.batch_size >= OVERHEAD_PCT_MIN_BATCH {
            assert!(
                point.overhead_pct <= MAX_ENVELOPE_OVERHEAD_PCT,
                "batch {}: envelope overhead {:.3}% exceeds {:.1}% budget \
                 ({} traced vs {} bare bytes)",
                point.batch_size,
                point.overhead_pct,
                MAX_ENVELOPE_OVERHEAD_PCT,
                point.traced_bytes,
                point.bare_bytes,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_overhead_stays_in_budget() {
        let (figure, points) = obs_sweep_with(&[1, 4]);
        let (again, _) = obs_sweep_with(&[1, 4]);
        assert_eq!(
            figure.series, again.series,
            "virtual-time sweep must be byte-stable"
        );
        assert_overhead_within_budget(&points);
    }

    #[test]
    fn instrumented_run_traces_every_flush_across_three_tiers() {
        let (_, points) = obs_sweep_with(&[4]);
        let point = &points[0];
        // client.flush + relay.coalesce + origin.execute per flush.
        assert_eq!(point.spans, 3 * FLUSHES as u64);
        // Lookup plus one upstream round trip per flush.
        assert_eq!(point.sim_requests, FLUSHES as u64 + 1);
        // The simulated network charged real time to the flush spans.
        assert!(point.flush_p50 > Duration::ZERO);
        assert!(point.flush_p99 >= point.flush_p50);
        // The registry saw all tiers plus the tracer itself.
        assert_eq!(point.metrics.counter("trace_spans"), 3 * FLUSHES as u64);
        assert_eq!(point.metrics.counter("executor_executions"), FLUSHES as u64);
        assert_eq!(
            point.metrics.counter("transport_requests{tier=\"sim\"}"),
            FLUSHES as u64 + 1
        );
        // And the first trace renders as a three-deep waterfall.
        assert!(point.waterfall.contains("client.flush"));
        assert!(point.waterfall.contains("  relay.coalesce"));
        assert!(point.waterfall.contains("    origin.execute"));
    }
}
