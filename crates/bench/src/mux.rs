//! Mux-vs-pool client sweep: socket and write-syscall economics of N
//! concurrent callers over **one** multiplexed socket versus N pooled
//! sockets, against the same reactor origin.
//!
//! The workload is [`brmi_apps::stress::run_mux_stress`]: every caller
//! issues fixed bursts of no-op calls, first through a
//! [`MuxClient`](brmi_transport::mux::MuxClient) (each burst ships as one
//! vectored write, replies demultiplexed by request id) and then through
//! the [`TcpPool`](brmi_transport::pool::TcpPool) baseline (one socket
//! checkout, one round trip and one vectored write per call). Everything
//! the committed `BENCH_mux.json` baseline checks is deterministic:
//! sockets (1 vs N), frames, write syscalls and bytes are fixed by the
//! workload shape. Wall-clock throughput is printed for humans only.

use brmi_apps::stress::{run_mux_stress, MuxStressConfig, MuxStressReport};

use crate::MultiFigure;

/// Call bursts each caller issues at every sweep point.
const BURSTS_PER_CALLER: usize = 8;
/// No-op calls per burst (one frame each; one vectored write per burst).
const CALLS_PER_BURST: usize = 16;
/// Reactor event-loop threads serving each phase's origin.
const REACTOR_THREADS: usize = 2;

/// The default caller-count sweep: 1 → 64 concurrent callers.
pub const MUX_CALLER_SWEEP: [u32; 5] = [1, 2, 8, 32, 64];

/// Runs the mux-vs-pool workload once per entry of `callers` and returns
/// the deterministic wire-level figure plus the full reports (which
/// include the nondeterministic wall-clock timings).
///
/// # Panics
///
/// Panics when a run fails; the workload is local and healthy runs never
/// fail.
pub fn mux_sweep_with(callers: &[u32]) -> (MultiFigure, Vec<MuxStressReport>) {
    let mut calls = Vec::with_capacity(callers.len());
    let mut mux_sockets = Vec::with_capacity(callers.len());
    let mut pool_sockets = Vec::with_capacity(callers.len());
    let mut mux_syscalls = Vec::with_capacity(callers.len());
    let mut pool_syscalls = Vec::with_capacity(callers.len());
    let mut sent = Vec::with_capacity(callers.len());
    let mut received = Vec::with_capacity(callers.len());
    let mut reports = Vec::with_capacity(callers.len());
    for &n in callers {
        let report = run_mux_stress(&MuxStressConfig {
            callers: n as usize,
            bursts_per_caller: BURSTS_PER_CALLER,
            calls_per_burst: CALLS_PER_BURST,
            reactor_threads: REACTOR_THREADS,
        })
        .expect("mux stress run failed");
        calls.push(report.calls_executed as f64);
        mux_sockets.push(report.mux_sockets as f64);
        pool_sockets.push(report.pool_sockets as f64);
        mux_syscalls.push(report.mux_write_syscalls as f64);
        // One vectored write per pooled round trip (framing::write_frame).
        pool_syscalls.push(report.pool_round_trips as f64);
        sent.push(report.mux_bytes_sent as f64);
        received.push(report.mux_bytes_received as f64);
        reports.push(report);
    }
    let figure = MultiFigure {
        id: "figR3",
        title: format!(
            "Mux client vs pool: {BURSTS_PER_CALLER} bursts × {CALLS_PER_BURST} calls per \
             caller, one shared socket (deterministic wire series)"
        ),
        x_label: "concurrent callers",
        x: callers.to_vec(),
        series: vec![
            ("Calls", calls),
            ("MuxSockets", mux_sockets),
            ("PoolSockets", pool_sockets),
            ("MuxWriteSyscalls", mux_syscalls),
            ("PoolWriteSyscalls", pool_syscalls),
            ("MuxSentBytes", sent),
            ("MuxRecvBytes", received),
        ],
    };
    (figure, reports)
}

/// Prints the per-point syscall economics and the wall-clock side of the
/// sweep (the latter is not baseline-checked).
pub fn print_measured_economics(reports: &[MuxStressReport]) {
    println!("write syscalls per call and measured throughput:");
    println!(
        "{:>18} {:>14} {:>15} {:>14} {:>15} {:>14}",
        "concurrent callers",
        "mux sysc/call",
        "pool sysc/call",
        "mux calls/s",
        "pool calls/s",
        "mux elapsed ms"
    );
    for report in reports {
        println!(
            "{:>18} {:>14.3} {:>15.3} {:>14.0} {:>15.0} {:>14.2}",
            report.config.callers,
            report.mux_syscalls_per_call(),
            report.pool_syscalls_per_call(),
            report.mux_calls_per_sec(),
            report.pool_calls_per_sec(),
            report.elapsed_mux.as_secs_f64() * 1e3,
        );
    }
    println!();
}
