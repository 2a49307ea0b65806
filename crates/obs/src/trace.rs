//! Cross-tier trace spans: deterministic span identity, a recording
//! `Tracer`, and a test-side `TraceCollector` that reassembles the
//! client → relay → origin waterfall.
//!
//! The wire form is [`TraceCtx`] (defined in `brmi_wire` so the protocol
//! layer can carry it inside a `Frame::Traced` envelope): `trace_id` names
//! one end-to-end journey, `span_id` the sending tier's span, `parent` the
//! span that caused it. Each tier asks its [`Tracer`] for a child context,
//! does its work, records the span with start/end timestamps from a
//! [`TimeSource`], and forwards the frame re-wrapped with its own context.
//! Span and trace ids are minted from one atomic sequence, so a
//! single-threaded virtual-time test sees identical ids and timestamps on
//! every run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::metrics::Counter;
use brmi_wire::protocol::TraceCtx;

/// A monotonic clock: the tracer timestamps spans with it, and the edge
/// tiers time their flush windows and cache TTLs with it. Implemented by
/// the transport layer's `VirtualClock` (exact, deterministic) and by
/// [`WallTime`] (real `Instant`-based time for production use).
pub trait TimeSource: Send + Sync {
    /// Time elapsed since this source's arbitrary epoch.
    fn now(&self) -> Duration;

    /// How long a thread waiting for a deadline `remaining` away may block
    /// before it must recheck the time. Real time can sleep the whole
    /// remainder; a source advanced by someone else has to be polled.
    fn wait_slice(&self, remaining: Duration) -> Duration {
        remaining
    }
}

/// Real time: duration since the source was created.
#[derive(Debug, Clone)]
pub struct WallTime(std::time::Instant);

impl WallTime {
    /// Starts a wall-time source at "now".
    pub fn new() -> WallTime {
        WallTime(std::time::Instant::now())
    }
}

impl Default for WallTime {
    fn default() -> WallTime {
        WallTime::new()
    }
}

impl TimeSource for WallTime {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
}

/// One completed span: a tier's share of a traced journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The journey this span belongs to.
    pub trace_id: u64,
    /// This span's identity.
    pub span_id: u64,
    /// The causing span (`0` for a root).
    pub parent: u64,
    /// A `tier.operation` name, e.g. `client.flush`, `relay.coalesce`,
    /// `origin.execute`.
    pub name: &'static str,
    /// Start timestamp (tracer [`TimeSource`] epoch).
    pub start: Duration,
    /// End timestamp (same epoch; `end >= start`).
    pub end: Duration,
}

impl SpanRecord {
    /// The span's wall (or virtual) duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The span's context as carried on the wire.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent: self.parent,
        }
    }
}

/// Receives completed spans. Production sinks might ship them out of
/// process; tests use [`TraceCollector`].
pub trait SpanSink: Send + Sync {
    /// Accepts one completed span.
    fn record(&self, span: SpanRecord);
}

/// Mints span identity and records completed spans against a sink.
///
/// Ids are sequential from 1 out of one atomic, so a deterministic
/// (single-threaded, virtual-time) run produces identical ids every time;
/// under concurrency they are merely unique, which is all correlation
/// needs. The tracer also counts recorded spans on a [`Counter`] that can
/// be registered with a metrics `Registry` (family `trace_spans`).
pub struct Tracer {
    next_id: AtomicU64,
    time: Arc<dyn TimeSource>,
    sink: Arc<dyn SpanSink>,
    spans: Counter,
}

impl Tracer {
    /// Creates a tracer stamping spans from `time` and delivering them to
    /// `sink`.
    pub fn new(time: Arc<dyn TimeSource>, sink: Arc<dyn SpanSink>) -> Arc<Tracer> {
        Arc::new(Tracer {
            next_id: AtomicU64::new(1),
            time,
            sink,
            spans: Counter::new(),
        })
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The tracer's current timestamp.
    pub fn now(&self) -> Duration {
        self.time.now()
    }

    /// Mints a root context: a fresh trace whose first span has no parent.
    pub fn root(&self) -> TraceCtx {
        let id = self.next_id();
        TraceCtx {
            trace_id: id,
            span_id: id,
            parent: 0,
        }
    }

    /// Mints a child context within `parent`'s trace.
    pub fn child(&self, parent: TraceCtx) -> TraceCtx {
        TraceCtx {
            trace_id: parent.trace_id,
            span_id: self.next_id(),
            parent: parent.span_id,
        }
    }

    /// Records a completed span for `ctx`.
    pub fn record(&self, ctx: TraceCtx, name: &'static str, start: Duration, end: Duration) {
        self.spans.inc();
        self.sink.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent: ctx.parent,
            name,
            start,
            end,
        });
    }

    /// The counter of spans recorded so far — register it under
    /// `trace_spans` to include tracing volume in a unified snapshot.
    pub fn span_counter(&self) -> Counter {
        self.spans.clone()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("spans", &self.spans.value())
            .finish_non_exhaustive()
    }
}

/// One row of a reassembled waterfall: a span at its causal depth
/// (root = 0, its children = 1, …), in depth-first order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaterfallRow {
    /// Causal depth below the trace root.
    pub depth: usize,
    /// The span itself.
    pub span: SpanRecord,
}

/// A test-side [`SpanSink`] that keeps every span in memory and
/// reassembles per-trace waterfalls.
#[derive(Default)]
pub struct TraceCollector {
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceCollector {
    /// Creates an empty collector.
    pub fn new() -> Arc<TraceCollector> {
        Arc::new(TraceCollector::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// All spans recorded so far, in arrival order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().clone()
    }

    /// Distinct trace ids seen so far, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.lock().iter().map(|span| span.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Reassembles the waterfall for one trace: spans ordered depth-first
    /// from the root(s), children sorted by `(start, span_id)`. A span
    /// whose parent was never recorded (e.g. a tier without tracing in
    /// the middle) is treated as a root, so partial traces still render.
    pub fn waterfall(&self, trace_id: u64) -> Vec<WaterfallRow> {
        let mut spans: Vec<SpanRecord> = self
            .lock()
            .iter()
            .filter(|span| span.trace_id == trace_id)
            .cloned()
            .collect();
        spans.sort_by_key(|span| (span.start, span.span_id));
        let known: std::collections::BTreeSet<u64> =
            spans.iter().map(|span| span.span_id).collect();
        let mut rows = Vec::with_capacity(spans.len());
        let roots: Vec<SpanRecord> = spans
            .iter()
            .filter(|span| span.parent == 0 || !known.contains(&span.parent))
            .cloned()
            .collect();
        for root in roots {
            Self::push_subtree(&root, 0, &spans, &mut rows);
        }
        rows
    }

    fn push_subtree(
        span: &SpanRecord,
        depth: usize,
        spans: &[SpanRecord],
        rows: &mut Vec<WaterfallRow>,
    ) {
        rows.push(WaterfallRow {
            depth,
            span: span.clone(),
        });
        for child in spans.iter().filter(|s| s.parent == span.span_id) {
            Self::push_subtree(child, depth + 1, spans, rows);
        }
    }

    /// Renders a human-readable waterfall for one trace: one line per
    /// span, indented by depth, with start/duration in microseconds.
    pub fn render_waterfall(&self, trace_id: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for row in self.waterfall(trace_id) {
            let _ = writeln!(
                out,
                "{:indent$}{} [{}..{}us] span={} parent={}",
                "",
                row.span.name,
                row.span.start.as_micros(),
                row.span.end.as_micros(),
                row.span.span_id,
                row.span.parent,
                indent = row.depth * 2,
            );
        }
        out
    }
}

impl SpanSink for TraceCollector {
    fn record(&self, span: SpanRecord) {
        self.lock().push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-cranked time source for tests.
    struct StepTime(AtomicU64);

    impl TimeSource for StepTime {
        fn now(&self) -> Duration {
            Duration::from_micros(self.0.fetch_add(10, Ordering::Relaxed))
        }
    }

    #[test]
    fn ids_are_sequential_and_deterministic() {
        let collector = TraceCollector::new();
        let tracer = Tracer::new(Arc::new(StepTime(AtomicU64::new(0))), collector.clone());
        let root = tracer.root();
        assert_eq!((root.trace_id, root.span_id, root.parent), (1, 1, 0));
        let child = tracer.child(root);
        assert_eq!((child.trace_id, child.span_id, child.parent), (1, 2, 1));
        let grandchild = tracer.child(child);
        assert_eq!(
            (grandchild.trace_id, grandchild.span_id, grandchild.parent),
            (1, 3, 2)
        );
        let next_root = tracer.root();
        assert_eq!(next_root.trace_id, 4);
    }

    #[test]
    fn waterfall_reassembles_causal_order() {
        let collector = TraceCollector::new();
        let tracer = Tracer::new(Arc::new(StepTime(AtomicU64::new(0))), collector.clone());
        let client = tracer.root();
        let relay = tracer.child(client);
        let origin = tracer.child(relay);
        // Record out of order (origin first, as replies unwind).
        tracer.record(
            origin,
            "origin.execute",
            Duration::from_micros(20),
            Duration::from_micros(30),
        );
        tracer.record(
            relay,
            "relay.coalesce",
            Duration::from_micros(10),
            Duration::from_micros(35),
        );
        tracer.record(
            client,
            "client.flush",
            Duration::from_micros(0),
            Duration::from_micros(40),
        );
        assert_eq!(collector.trace_ids(), vec![1]);
        let rows = collector.waterfall(1);
        let shape: Vec<(usize, &str)> = rows.iter().map(|row| (row.depth, row.span.name)).collect();
        assert_eq!(
            shape,
            vec![
                (0, "client.flush"),
                (1, "relay.coalesce"),
                (2, "origin.execute"),
            ]
        );
        // Causal containment: each child starts and ends within its parent.
        for pair in rows.windows(2) {
            if pair[1].depth == pair[0].depth + 1 {
                assert!(pair[1].span.start >= pair[0].span.start);
                assert!(pair[1].span.end <= pair[0].span.end);
            }
        }
        let rendered = collector.render_waterfall(1);
        assert!(rendered.contains("client.flush"));
        assert!(rendered.contains("  relay.coalesce"));
        assert!(rendered.contains("    origin.execute"));
        assert_eq!(tracer.span_counter().value(), 3);
    }

    #[test]
    fn orphan_spans_render_as_roots() {
        let collector = TraceCollector::new();
        let tracer = Tracer::new(Arc::new(StepTime(AtomicU64::new(0))), collector.clone());
        let root = tracer.root();
        let child = tracer.child(root);
        let grandchild = tracer.child(child);
        // The middle tier never records: the grandchild still shows up.
        tracer.record(
            grandchild,
            "origin.execute",
            Duration::ZERO,
            Duration::from_micros(5),
        );
        tracer.record(
            root,
            "client.flush",
            Duration::ZERO,
            Duration::from_micros(9),
        );
        let rows = collector.waterfall(1);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|row| row.depth == 0));
    }

    #[test]
    fn span_record_helpers() {
        let span = SpanRecord {
            trace_id: 3,
            span_id: 4,
            parent: 3,
            name: "relay.coalesce",
            start: Duration::from_micros(5),
            end: Duration::from_micros(9),
        };
        assert_eq!(span.duration(), Duration::from_micros(4));
        assert_eq!(
            span.ctx(),
            TraceCtx {
                trace_id: 3,
                span_id: 4,
                parent: 3
            }
        );
    }
}
