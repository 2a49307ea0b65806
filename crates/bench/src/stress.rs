//! Reactor TCP throughput sweep: the figure the paper could not have —
//! one server multiplexing a growing population of batching clients over
//! real sockets.
//!
//! Unlike the simulated sweeps (virtual time, exactly reproducible
//! latencies), this workload runs over the real reactor transport, so its
//! *wall-clock* throughput varies with the machine. The committed baseline
//! therefore checks the run's **deterministic wire-level series** — round
//! trips, calls executed, bytes sent/received — which are fixed by the
//! workload shape (see [`brmi_apps::stress`]): any drift in those numbers
//! means the protocol or the batching changed, not the hardware. The
//! measured calls-per-second figures are printed alongside for humans and
//! deliberately excluded from the `--check` tables.

use brmi_apps::stress::{run_reactor_stress, StressConfig, StressReport};

use crate::MultiFigure;

/// Batches each client flushes at every sweep point.
const BATCHES_PER_CLIENT: usize = 25;
/// No-op calls folded into each batch.
const CALLS_PER_BATCH: usize = 20;
/// Reactor event-loop threads serving the whole sweep point.
const REACTOR_THREADS: usize = 2;

/// The default client-count sweep: 1 → 128 concurrent clients.
pub const CLIENT_SWEEP: [u32; 6] = [1, 2, 8, 32, 64, 128];

/// Runs the stress workload once per entry of `clients` and returns the
/// deterministic wire-level figure plus the full reports (which include
/// the nondeterministic wall-clock timings).
///
/// # Panics
///
/// Panics when a stress run fails; the workload is local and healthy runs
/// never fail.
pub fn reactor_sweep_with(clients: &[u32]) -> (MultiFigure, Vec<StressReport>) {
    let mut round_trips = Vec::with_capacity(clients.len());
    let mut calls = Vec::with_capacity(clients.len());
    let mut sent = Vec::with_capacity(clients.len());
    let mut received = Vec::with_capacity(clients.len());
    let mut reports = Vec::with_capacity(clients.len());
    for &n in clients {
        let report = run_reactor_stress(&StressConfig {
            clients: n as usize,
            batches_per_client: BATCHES_PER_CLIENT,
            calls_per_batch: CALLS_PER_BATCH,
            reactor_threads: REACTOR_THREADS,
        })
        .expect("stress run failed");
        round_trips.push(report.round_trips as f64);
        calls.push(report.calls_executed as f64);
        sent.push(report.bytes_sent as f64);
        received.push(report.bytes_received as f64);
        reports.push(report);
    }
    let figure = MultiFigure {
        id: "figR1",
        title: format!(
            "Reactor TCP stress: {BATCHES_PER_CLIENT} batches × {CALLS_PER_BATCH} calls \
             per client, {REACTOR_THREADS} reactor threads (deterministic wire series)"
        ),
        x_label: "concurrent clients",
        x: clients.to_vec(),
        series: vec![
            ("RoundTrips", round_trips),
            ("Calls", calls),
            ("SentBytes", sent),
            ("RecvBytes", received),
        ],
    };
    (figure, reports)
}

/// Prints the wall-clock side of the sweep (not baseline-checked).
pub fn print_measured_throughput(reports: &[StressReport]) {
    println!("measured wall-clock throughput (informational, machine-dependent):");
    println!(
        "{:>20} {:>16} {:>18} {:>14}",
        "concurrent clients", "calls/s", "round trips/s", "elapsed ms"
    );
    for report in reports {
        println!(
            "{:>20} {:>16.0} {:>18.0} {:>14.2}",
            report.config.clients,
            report.calls_per_sec(),
            report.round_trips_per_sec(),
            report.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!();
}
