//! Multi-tier relay sweep: origin round trips with and without an edge
//! tier, over a growing client population.
//!
//! The workload is [`brmi_apps::relay`]'s client → edge → origin topology
//! with full-wave coalescing (the edge ships one super-batch per wave of
//! client batches). Everything the committed `BENCH_relay.json` baseline
//! checks is wire-level and deterministic: origin round trips, upstream
//! flushes, executed calls and bytes on the edge↔origin hop are fixed by
//! the workload shape. The `DirectOriginRoundTrips` series is the same
//! workload's cost without the edge (one lookup per client plus one round
//! trip per batch — exactly what the reactor stress sweep measures); the
//! ratio between the two series is the relay's round-trip reduction,
//! reported per sweep point by [`print_measured_reduction`].

use brmi_apps::relay::{run_relay_stress, RelayStressConfig, RelayStressReport};

use crate::MultiFigure;

/// Batches each client flushes at every sweep point.
const BATCHES_PER_CLIENT: usize = 10;
/// No-op calls folded into each batch.
const CALLS_PER_BATCH: usize = 16;

/// The default client-count sweep: 1 → 64 concurrent clients.
pub const RELAY_CLIENT_SWEEP: [u32; 5] = [1, 2, 8, 32, 64];

/// Runs the relay workload once per entry of `clients` and returns the
/// deterministic wire-level figure plus the full reports (which include
/// the nondeterministic wall-clock timings).
///
/// # Panics
///
/// Panics when a run fails; the workload is local and healthy runs never
/// fail.
pub fn relay_sweep_with(clients: &[u32]) -> (MultiFigure, Vec<RelayStressReport>) {
    let mut origin_rts = Vec::with_capacity(clients.len());
    let mut direct_rts = Vec::with_capacity(clients.len());
    let mut flushes = Vec::with_capacity(clients.len());
    let mut calls = Vec::with_capacity(clients.len());
    let mut sent = Vec::with_capacity(clients.len());
    let mut received = Vec::with_capacity(clients.len());
    let mut reports = Vec::with_capacity(clients.len());
    for &n in clients {
        let report = run_relay_stress(&RelayStressConfig::default_coalescing(
            n as usize,
            BATCHES_PER_CLIENT,
            CALLS_PER_BATCH,
        ))
        .expect("relay stress run failed");
        origin_rts.push(report.origin_round_trips as f64);
        direct_rts.push(report.direct_origin_round_trips() as f64);
        flushes.push(report.upstream_flushes as f64);
        calls.push(report.calls_executed as f64);
        sent.push(report.upstream_bytes_sent as f64);
        received.push(report.upstream_bytes_received as f64);
        reports.push(report);
    }
    let figure = MultiFigure {
        id: "figR2",
        title: format!(
            "Multi-tier relay: {BATCHES_PER_CLIENT} batches × {CALLS_PER_BATCH} calls per \
             client, full-wave coalescing (deterministic wire series)"
        ),
        x_label: "concurrent clients",
        x: clients.to_vec(),
        series: vec![
            ("OriginRoundTrips", origin_rts),
            ("DirectOriginRoundTrips", direct_rts),
            ("UpstreamFlushes", flushes),
            ("Calls", calls),
            ("UpstreamSentBytes", sent),
            ("UpstreamRecvBytes", received),
        ],
    };
    (figure, reports)
}

/// Prints the per-point round-trip reduction and the wall-clock side of
/// the sweep (the latter is not baseline-checked).
pub fn print_measured_reduction(reports: &[RelayStressReport]) {
    println!("origin round-trip reduction and measured throughput:");
    println!(
        "{:>20} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "concurrent clients", "direct RTs", "relayed RTs", "reduction", "calls/s", "elapsed ms"
    );
    for report in reports {
        println!(
            "{:>20} {:>12} {:>12} {:>11.1}x {:>14.0} {:>14.2}",
            report.config.clients,
            report.direct_origin_round_trips(),
            report.origin_round_trips,
            report.round_trip_reduction(),
            report.calls_per_sec(),
            report.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!();
}
