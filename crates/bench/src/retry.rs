//! Keyed-retry goodput sweep: exactly-once accounting over increasingly
//! lossy links.
//!
//! The workload is [`brmi_apps::stress::run_retry_stress`]: keyed clients
//! flush no-op batches over seeded request- and reply-drop layers under a
//! [`RetryTransport`](brmi_transport::retry::RetryTransport), against one
//! origin whose reply cache absorbs every re-sent duplicate. The x axis is
//! the drop rate; the headline series is `CallsExecuted`, which stays
//! *flat* across the sweep — no drop rate loses or duplicates a call —
//! while the drop/re-send/replay series grow with the loss. Every
//! committed series is an exact count from seeded schedules, so the
//! `BENCH_retry.json` baseline diffs bit for bit; goodput (calls per
//! wall-clock second) is printed for humans only.

use brmi_apps::stress::{run_retry_stress, RetryStressConfig, RetryStressReport};

use crate::MultiFigure;

/// Clients per sweep point (run sequentially for determinism).
const CLIENTS: usize = 8;
/// Keyed batches each client flushes.
const BATCHES_PER_CLIENT: usize = 16;
/// No-op calls folded into each batch.
const CALLS_PER_BATCH: usize = 10;
/// Base seed for the drop schedules.
const SEED: u64 = 0x5EED_CAFE;

/// The default drop-rate sweep, in thousandths: a clean link up to a
/// savage 30% loss on every request and every reply.
pub const RETRY_DROP_SWEEP: [u32; 5] = [0, 50, 100, 200, 300];

/// Runs the keyed-retry workload once per entry of `drop_rates`
/// (per-mille) and returns the deterministic count series plus the full
/// reports (which include the nondeterministic wall-clock timings).
///
/// # Panics
///
/// Panics when a run fails; with the 32-attempt retry budget, a failure
/// at these drop rates means the retry layer is broken.
pub fn retry_sweep_with(drop_rates: &[u32]) -> (MultiFigure, Vec<RetryStressReport>) {
    let mut calls = Vec::with_capacity(drop_rates.len());
    let mut drops = Vec::with_capacity(drop_rates.len());
    let mut resends = Vec::with_capacity(drop_rates.len());
    let mut executions = Vec::with_capacity(drop_rates.len());
    let mut replays = Vec::with_capacity(drop_rates.len());
    let mut reports = Vec::with_capacity(drop_rates.len());
    for &per_mille in drop_rates {
        let report = run_retry_stress(&RetryStressConfig {
            clients: CLIENTS,
            batches_per_client: BATCHES_PER_CLIENT,
            calls_per_batch: CALLS_PER_BATCH,
            drop_per_mille: u16::try_from(per_mille).expect("drop rate fits u16"),
            seed: SEED,
        })
        .expect("retry stress run failed");
        calls.push(report.calls_executed as f64);
        drops.push(report.injected_drops as f64);
        resends.push(report.client_resends as f64);
        executions.push(report.origin_executions as f64);
        replays.push(report.origin_replays as f64);
        reports.push(report);
    }
    let figure = MultiFigure {
        id: "figT1",
        title: format!(
            "Keyed retries under loss: {CLIENTS} clients × {BATCHES_PER_CLIENT} batches × \
             {CALLS_PER_BATCH} calls, exactly-once counts vs drop rate (deterministic series)"
        ),
        x_label: "drop rate (per mille)",
        x: drop_rates.to_vec(),
        series: vec![
            ("CallsExecuted", calls),
            ("InjectedDrops", drops),
            ("ClientResends", resends),
            ("OriginExecutions", executions),
            ("OriginReplays", replays),
        ],
    };
    (figure, reports)
}

/// Prints the per-point retry overhead and the wall-clock goodput side of
/// the sweep (the latter is not baseline-checked).
pub fn print_measured_goodput(reports: &[RetryStressReport]) {
    println!("retry overhead and measured goodput:");
    println!(
        "{:>22} {:>14} {:>16} {:>14} {:>14}",
        "drop rate (per mille)", "drops", "resends/call", "goodput c/s", "elapsed ms"
    );
    for report in reports {
        println!(
            "{:>22} {:>14} {:>16.4} {:>14.0} {:>14.2}",
            report.config.drop_per_mille,
            report.injected_drops,
            report.resend_overhead(),
            report.goodput_calls_per_sec(),
            report.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_series_are_exact_counts() {
        let (figure, reports) = retry_sweep_with(&[0, 200]);
        let total = (CLIENTS * BATCHES_PER_CLIENT * CALLS_PER_BATCH) as f64;
        // The headline: the executed-call series is flat — loss never
        // loses or duplicates a call.
        assert_eq!(figure.series_named("CallsExecuted"), &[total, total]);
        // A clean link never drops, re-sends or replays.
        assert_eq!(figure.series_named("InjectedDrops")[0], 0.0);
        assert_eq!(figure.series_named("OriginReplays")[0], 0.0);
        // A lossy link does all three. Re-sends answer every dropped
        // *keyed* frame; drops of best-effort unkeyed traffic (reference
        // releases) are counted but never retried, so resends ≤ drops.
        assert!(reports[1].injected_drops > 0);
        assert!(reports[1].client_resends > 0);
        assert!(reports[1].client_resends <= reports[1].injected_drops);
        assert!(reports[1].origin_replays > 0);
    }
}
