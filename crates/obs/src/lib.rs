//! # `brmi_obs` — the unified observability layer
//!
//! Every tier of the batching middleware (client batcher → relay →
//! origin) used to keep its own ad-hoc counters. This crate gives them one
//! substrate with three parts:
//!
//! * **Metrics** ([`metrics`]): lock-free sharded [`Counter`]s, [`Gauge`]s
//!   and a fixed-bucket log2 [`Histogram`] with deterministic bucket edges
//!   and a merge operation. A [`Registry`] collects labeled families and
//!   produces sorted, byte-stable snapshots with JSON and Prometheus-style
//!   text encoders. Under virtual time the snapshots are bit-for-bit
//!   reproducible, which is how `BENCH_obs.json` commits p50/p99/p999.
//! * **Tracing** ([`trace`]): a [`Tracer`] mints compact
//!   [`TraceCtx`]`{trace_id, span_id, parent}` contexts (carried on the
//!   wire by `Frame::Traced` envelopes) and records [`SpanRecord`]s
//!   against a [`SpanSink`]; the test-side [`TraceCollector`] reassembles
//!   a cross-tier waterfall deterministically.
//! * **The [`Snapshot`] trait**: implemented by the registry and by every
//!   migrated per-tier stats façade, so a stress bin can dump one unified
//!   metrics snapshot no matter which tiers are in play.
//!
//! The crate sits at the bottom of the workspace graph (only `brmi-wire`
//! below it, for the `TraceCtx` wire type), so transport, rmi, core and
//! the bench harness can all record into the same cells.

#![deny(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod metrics;
pub mod trace;

pub use brmi_wire::protocol::TraceCtx;
pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricEntry, MetricKey, MetricValue, MetricsSnapshot, Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{SpanRecord, SpanSink, TimeSource, TraceCollector, Tracer, WallTime, WaterfallRow};
