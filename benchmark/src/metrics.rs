//! The metric tables — names, units and directions exactly as
//! `BENCHMARK.json` lists them — and the derivation of the per-layer
//! numbers from one traced run.

use std::collections::BTreeMap;

use crate::run::Outcome;
use crate::stats::Summary;
use crate::trace::{SpanName::*, Totals};

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system would see. `failed_share` is the seventh:
/// it is zero on a healthy run, so the driver's contract carries it as the
/// result line's `failed` and `attempted` instead of a bounded metric, and
/// `compare` treats any rise as a regression.
pub const END_TO_END: &[MetricDef] = &[
    ("calls_per_s", "1/s", "higher"),
    ("flush_p50_us", "us", "lower"),
    ("flush_p99_us", "us", "lower"),
    ("cpu_us_per_call", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

pub const FAILED_SHARE: &str = "failed_share";

/// Single layers. The direction of a plain count says which way it moves
/// when its layer does better at a fixed offered load.
pub const PER_LAYER: &[MetricDef] = &[
    ("core.record_ns_per_call", "ns", "lower"),
    ("core.claim_ns_per_call", "ns", "lower"),
    ("core.flush_self_us_mean", "us", "lower"),
    ("core.executor_batches", "count", "higher"),
    ("core.executor_calls", "count", "higher"),
    ("wire.request_encode_ns_per_call", "ns", "lower"),
    ("wire.request_decode_ns_per_call", "ns", "lower"),
    ("wire.reply_encode_ns_per_call", "ns", "lower"),
    ("wire.reply_decode_ns_per_call", "ns", "lower"),
    ("wire.request_bytes_per_call", "B", "lower"),
    ("wire.reply_bytes_per_call", "B", "lower"),
    ("transport.hop_self_us_mean", "us", "lower"),
    ("mux.write_syscalls_per_frame", "ratio", "lower"),
    ("mux.frames_sent", "count", "higher"),
    ("reactor.backpressure_pauses", "count", "lower"),
    ("reactor.requests_shed", "count", "lower"),
    ("reactor.connections_shed", "count", "lower"),
    ("reactor.worker_queue_depth_max", "count", "lower"),
    ("rmi.handle_us_mean", "us", "lower"),
    ("rmi.handle_self_us_mean", "us", "lower"),
    ("rmi.table_lookup_ns", "ns", "lower"),
    ("rmi.replay_executions", "count", "higher"),
    ("rmi.replay_replays", "count", "lower"),
    ("apps.service_ns_per_call", "ns", "lower"),
    ("durable.appends", "count", "higher"),
    ("durable.fsyncs", "count", "lower"),
    ("durable.fsyncs_per_append", "ratio", "lower"),
    ("durable.bytes_per_append", "B", "lower"),
    ("durable.snapshots", "count", "lower"),
    ("durable.append_ns", "ns", "lower"),
    ("durable.commit_us", "us", "lower"),
    ("durable.handle_wait_us_mean", "us", "lower"),
    ("durable.recovery_ms", "ms", "lower"),
    ("durable.replayed_records", "count", "lower"),
    ("relay.handle_us_mean", "us", "lower"),
    ("relay.upstream_us_mean", "us", "lower"),
    ("relay.batches", "count", "higher"),
    ("relay.upstream_flushes", "count", "lower"),
    ("relay.batches_per_flush", "ratio", "higher"),
    ("relay.coalesce_wait_us_p50", "us", "lower"),
    ("relay.coalesce_wait_us_p99", "us", "lower"),
    ("relay.largest_group", "count", "higher"),
    ("fetcher.handle_self_us_mean", "us", "lower"),
    ("fetcher.lookups", "count", "higher"),
    ("fetcher.hits", "count", "higher"),
    ("fetcher.misses", "count", "lower"),
    ("fetcher.absorbed_ratio", "ratio", "higher"),
    ("fetcher.probe_batches", "count", "lower"),
    ("fetcher.invalidations", "count", "lower"),
    ("fetcher.stale_reads", "count", "lower"),
    ("edge.read_flush_p50_us", "us", "lower"),
    ("edge.write_flush_p50_us", "us", "lower"),
    ("client.flush_p999_us", "us", "lower"),
    ("share.client", "ratio", "lower"),
    ("share.core", "ratio", "lower"),
    ("share.wire", "ratio", "lower"),
    ("share.transport", "ratio", "lower"),
    ("share.edge", "ratio", "lower"),
    ("share.rmi", "ratio", "lower"),
    ("share.apps", "ratio", "lower"),
    ("share.durable", "ratio", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.slice_spread", "ratio", "lower"),
    ("bench.span_cost_ns", "ns", "lower"),
    ("env.calibration_ns", "ns", "lower"),
];

/// What the traced invocation measured besides its traced window.
pub struct Probes {
    /// `calls_per_s` slices of the untraced reference window.
    pub reference_calls_per_s: Vec<f64>,
    /// Mean `origin.handle` of the in-memory twin (`durable_keyed` only).
    pub twin_handle_ns: Option<f64>,
    pub table_lookup_ns: f64,
    /// `Log::append` ns and `Log::commit` µs (`durable_keyed` only).
    pub log_append_commit: Option<(f64, f64)>,
    pub span_cost_ns: f64,
    pub calibration_ns: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time one operation spends in each layer, in nanoseconds: every span
/// total divided by the operations traced, split by the static nesting.
/// The parts add up to the mean `client.op` by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    pub client: f64,
    pub core: f64,
    pub wire: f64,
    pub transport: f64,
    pub edge: f64,
    pub rmi: f64,
    pub apps: f64,
    pub durable: f64,
}

impl Budget {
    /// `wire_ns_per_op` is the codec's directly timed cost, moved out of
    /// the hop that contains it; `journal_wait_ns` is the part of one
    /// origin handle spent on the journal (from the in-memory twin).
    pub fn of(totals: &Totals, wire_ns_per_op: f64, journal_wait_ns: f64) -> Budget {
        let ops = totals.count(ClientOp);
        if ops == 0.0 {
            return Budget::default();
        }
        let per_op = |name| totals.total_ns(name) / ops;
        let request = per_op(ClientRequest);
        let core = if totals.count(CoreFlush) > 0.0 {
            per_op(CoreRecord) + per_op(CoreClaim) + per_op(CoreFlush) - request
        } else {
            0.0
        };
        let app_per_handle = ratio(totals.total_ns(AppCall), totals.count(OriginHandle));
        let mut budget = Budget {
            client: per_op(ClientOp) - core - request,
            core,
            wire: wire_ns_per_op,
            ..Budget::default()
        };
        // `reach`: origin-side time an operation waits for. Behind the
        // relay one origin handle serves several coalesced batches and
        // each of them waits for all of it, so the edge chain is split by
        // means per relayed batch, weighted by the share of operations
        // the fetcher did not absorb.
        let (hops, origin, reach) = if totals.count(EdgeHandle) > 0.0 {
            let reach = totals.count(RelayHandle) / ops;
            let wait = totals.mean_ns(RelayHandle) - totals.mean_ns(RelayUpstream);
            budget.edge = per_op(EdgeHandle) - per_op(RelayHandle) + reach * wait;
            let hop2 = totals.mean_ns(RelayUpstream) - totals.mean_ns(OriginHandle);
            (
                request - per_op(EdgeHandle) + reach * hop2,
                reach * totals.mean_ns(OriginHandle),
                reach,
            )
        } else {
            (request - per_op(OriginHandle), per_op(OriginHandle), 1.0)
        };
        budget.transport = hops - wire_ns_per_op;
        budget.apps = reach * app_per_handle;
        budget.durable = reach * journal_wait_ns;
        budget.rmi = origin - budget.apps - budget.durable;
        budget
    }

    pub fn total(&self) -> f64 {
        self.client
            + self.core
            + self.wire
            + self.transport
            + self.edge
            + self.rmi
            + self.apps
            + self.durable
    }
}

/// Derives every [`PER_LAYER`] metric from the traced window. Counts come
/// from registry snapshots by family name (how far each moved over the
/// window), times from the wrapper spans or the direct probes. A layer
/// the workload does not have reads zero.
pub fn per_layer(traced: &Outcome, probes: &Probes) -> BTreeMap<&'static str, f64> {
    let finish = traced.finish.clone().unwrap_or_default();
    let totals = &traced.totals;
    let moved = |key: &str| traced.moved.get(key).copied().unwrap_or(0.0);
    let level = |key: &str| traced.counts.get(key).copied().unwrap_or(0.0);
    let calls = traced.series.calls as f64;
    let ops = traced.series.ops as f64;
    let us = |ns: f64| ns / 1e3;
    let codec = traced.codec_ns_per_call;
    let journal_wait_ns = probes
        .twin_handle_ns
        .map_or(0.0, |twin| (totals.mean_ns(OriginHandle) - twin).max(0.0));
    let budget = Budget::of(
        totals,
        ratio(calls, ops) * codec.iter().sum::<f64>(),
        journal_wait_ns,
    );
    let share = |part: f64| ratio(part, budget.total());
    let first_tier = if totals.count(EdgeHandle) > 0.0 {
        EdgeHandle
    } else {
        OriginHandle
    };
    let reactors =
        |family: &str| moved(&format!("edge.{family}")) + moved(&format!("origin.{family}"));
    let lookups = moved("edge.fetcher_lookups");
    let reference = Summary::of(&probes.reference_calls_per_s);
    let traced_rate = Summary::of(&traced.series.calls_per_s).median;
    let (append_ns, commit_us) = probes.log_append_commit.unwrap_or((0.0, 0.0));

    let values: [(&'static str, f64); 65] = [
        (
            "core.record_ns_per_call",
            ratio(totals.total_ns(CoreRecord), calls),
        ),
        (
            "core.claim_ns_per_call",
            ratio(totals.total_ns(CoreClaim), calls),
        ),
        (
            "core.flush_self_us_mean",
            us(ratio(totals.self_ns(CoreFlush), totals.count(CoreFlush))),
        ),
        ("core.executor_batches", moved("origin.executor_executions")),
        ("core.executor_calls", moved("origin.executor_replays")),
        ("wire.request_encode_ns_per_call", codec[0]),
        ("wire.request_decode_ns_per_call", codec[1]),
        ("wire.reply_encode_ns_per_call", codec[2]),
        ("wire.reply_decode_ns_per_call", codec[3]),
        (
            "wire.request_bytes_per_call",
            ratio(moved("client.transport_bytes_sent{tier=\"mux\"}"), calls),
        ),
        (
            "wire.reply_bytes_per_call",
            ratio(
                moved("client.transport_bytes_received{tier=\"mux\"}"),
                calls,
            ),
        ),
        (
            "transport.hop_self_us_mean",
            us(totals.mean_ns(ClientRequest)
                - ratio(totals.total_ns(first_tier), totals.count(ClientRequest))),
        ),
        (
            "mux.write_syscalls_per_frame",
            ratio(
                moved("client.mux_write_syscalls"),
                moved("client.mux_frames_sent"),
            ),
        ),
        ("mux.frames_sent", moved("client.mux_frames_sent")),
        (
            "reactor.backpressure_pauses",
            reactors("reactor_backpressure_pauses"),
        ),
        ("reactor.requests_shed", reactors("reactor_requests_shed")),
        (
            "reactor.connections_shed",
            reactors("reactor_connections_shed"),
        ),
        ("reactor.worker_queue_depth_max", traced.queue_depth_max),
        ("rmi.handle_us_mean", us(totals.mean_ns(OriginHandle))),
        (
            "rmi.handle_self_us_mean",
            us(ratio(
                totals.self_ns(OriginHandle),
                totals.count(OriginHandle),
            )),
        ),
        ("rmi.table_lookup_ns", probes.table_lookup_ns),
        ("rmi.replay_executions", moved("origin.replay_executions")),
        ("rmi.replay_replays", moved("origin.replay_replays")),
        ("apps.service_ns_per_call", totals.mean_ns(AppCall)),
        ("durable.appends", moved("origin.durable_appends")),
        ("durable.fsyncs", moved("origin.durable_fsyncs")),
        (
            "durable.fsyncs_per_append",
            ratio(
                moved("origin.durable_fsyncs"),
                moved("origin.durable_appends"),
            ),
        ),
        (
            "durable.bytes_per_append",
            ratio(
                moved("origin.durable_bytes"),
                moved("origin.durable_appends"),
            ),
        ),
        ("durable.snapshots", moved("origin.durable_snapshots")),
        ("durable.append_ns", append_ns),
        ("durable.commit_us", commit_us),
        ("durable.handle_wait_us_mean", us(journal_wait_ns)),
        ("durable.recovery_ms", finish.recovery_ms),
        ("durable.replayed_records", finish.replayed_records),
        ("relay.handle_us_mean", us(totals.mean_ns(RelayHandle))),
        ("relay.upstream_us_mean", us(totals.mean_ns(RelayUpstream))),
        ("relay.batches", moved("edge.relay_batches")),
        (
            "relay.upstream_flushes",
            moved("edge.relay_upstream_flushes"),
        ),
        (
            "relay.batches_per_flush",
            ratio(
                moved("edge.relay_batches"),
                moved("edge.relay_upstream_flushes"),
            ),
        ),
        (
            "relay.coalesce_wait_us_p50",
            us(level("edge.relay_coalesce_wait_nanos.p50")),
        ),
        (
            "relay.coalesce_wait_us_p99",
            us(level("edge.relay_coalesce_wait_nanos.p99")),
        ),
        ("relay.largest_group", level("edge.relay_largest_group")),
        (
            "fetcher.handle_self_us_mean",
            us(ratio(totals.self_ns(EdgeHandle), totals.count(EdgeHandle))),
        ),
        ("fetcher.lookups", lookups),
        ("fetcher.hits", moved("edge.fetcher_hits")),
        ("fetcher.misses", moved("edge.fetcher_misses")),
        (
            "fetcher.absorbed_ratio",
            ratio(
                moved("edge.fetcher_hits") + moved("edge.fetcher_coalesced_reads"),
                lookups,
            ),
        ),
        ("fetcher.probe_batches", moved("edge.fetcher_probe_batches")),
        (
            "fetcher.invalidations",
            moved("edge.fetcher_drops{reason=\"invalidated\"}"),
        ),
        ("fetcher.stale_reads", finish.stale_reads),
        ("edge.read_flush_p50_us", traced.series.read_p50_us),
        (
            "edge.write_flush_p50_us",
            if traced.series.read_p50_us > 0.0 {
                traced.series.write_p50_us
            } else {
                0.0
            },
        ),
        ("client.flush_p999_us", traced.series.flush_p999_us),
        ("share.client", share(budget.client)),
        ("share.core", share(budget.core)),
        ("share.wire", share(budget.wire)),
        ("share.transport", share(budget.transport)),
        ("share.edge", share(budget.edge)),
        ("share.rmi", share(budget.rmi)),
        ("share.apps", share(budget.apps)),
        ("share.durable", share(budget.durable)),
        (
            "bench.trace_overhead_share",
            1.0 - ratio(traced_rate, reference.median),
        ),
        ("bench.slice_spread", reference.spread()),
        ("bench.span_cost_ns", probes.span_cost_ns),
        ("env.calibration_ns", probes.calibration_ns),
    ];
    values.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace::{Span, SpanName};

    fn spans(list: &[(SpanName, u64)]) -> Totals {
        let spans: Vec<Span> = list
            .iter()
            .map(|&(name, duration)| Span {
                name,
                start_ns: 0,
                end_ns: duration,
                thread: 0,
                seq: 0,
                parent: None,
                req: 0,
            })
            .collect();
        Totals::of(&spans)
    }

    #[test]
    fn direct_budget_adds_up_to_the_operation() {
        let totals = spans(&[
            (ClientOp, 1000),
            (CoreRecord, 100),
            (CoreFlush, 700),
            (CoreClaim, 150),
            (ClientRequest, 600),
            (OriginHandle, 300),
            (AppCall, 40),
            (AppCall, 60),
        ]);
        let budget = Budget::of(&totals, 50.0, 120.0);
        assert_eq!(budget.client, 50.0);
        assert_eq!(budget.core, 350.0);
        assert_eq!(budget.wire, 50.0);
        assert_eq!(budget.transport, 250.0);
        assert_eq!(budget.apps, 100.0);
        assert_eq!(budget.durable, 120.0);
        assert_eq!(budget.rmi, 80.0);
        assert_eq!(budget.edge, 0.0);
        assert_eq!(budget.total(), 1000.0);
    }

    #[test]
    fn edge_budget_weights_the_origin_by_the_batches_that_reach_it() {
        // Two operations; the fetcher absorbs one. The relayed one waits
        // 100 in the window, 50 on the second hop, 200 at the origin.
        let totals = spans(&[
            (ClientOp, 1000),
            (ClientOp, 200),
            (ClientRequest, 900),
            (ClientRequest, 100),
            (EdgeHandle, 500),
            (EdgeHandle, 20),
            (RelayHandle, 400),
            (RelayUpstream, 300),
            (OriginHandle, 250),
            (AppCall, 50),
        ]);
        let budget = Budget::of(&totals, 0.0, 0.0);
        assert_eq!(budget.client, 100.0);
        assert_eq!(budget.edge, (520.0 - 400.0) / 2.0 + 0.5 * 100.0);
        assert_eq!(budget.transport, (1000.0 - 520.0) / 2.0 + 0.5 * 50.0);
        assert_eq!(budget.apps, 25.0);
        assert_eq!(budget.rmi, 100.0);
        assert_eq!(budget.total(), 600.0, "mean client.op");
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// above from drifting apart.
    #[test]
    fn manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("manifest parses");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = manifest
                .get(section)
                .and_then(Json::as_arr)
                .expect("section")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("field").to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{section}");
        }
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::rig::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
