//! Durable-origin sweep: append-path accounting and recovery replay vs
//! log size.
//!
//! The workload is [`brmi_apps::durable::run_durable_stress`]: sequential
//! keyed clients with pinned client ids flush no-op batches against an
//! origin journaling every keyed execution (append + CRC + fsync before
//! the reply releases), then a fresh incarnation recovers the directory.
//! The x axis is batches per client, so the journal grows linearly across
//! the sweep; snapshots kick in at the cadence and cap what recovery must
//! replay. Every committed series is an exact count from pinned-id
//! deterministic journals, so the `BENCH_durable.json` baseline diffs bit
//! for bit; the append-path overhead vs the in-memory twin and the
//! recovery wall time are printed for humans only.

use brmi_apps::durable::{run_durable_stress, DurableStressConfig, DurableStressReport};

use crate::MultiFigure;

/// Sequential keyed clients per sweep point.
const CLIENTS: usize = 4;
/// No-op calls folded into each batch.
const CALLS_PER_BATCH: usize = 8;
/// Segment roll size (small enough that the sweep exercises sealing and
/// snapshot GC).
const SEGMENT_BYTES: u64 = 4 * 1024;
/// Snapshot cadence in keyed executions: the larger sweep points cross
/// it, so the recovery series shows compaction bending the replay curve.
const SNAPSHOT_EVERY: u64 = 64;

/// The default sweep: batches per client, growing the journal from
/// well under the snapshot cadence to several multiples of it.
pub const DURABLE_BATCH_SWEEP: [u32; 4] = [4, 16, 32, 64];

/// Runs the durable workload once per entry of `batches` and returns the
/// two deterministic figures (append path, recovery) plus the full
/// reports (which include the nondeterministic wall-clock timings).
///
/// # Panics
///
/// Panics when a run fails; over the in-process transport a failure
/// means the durability layer is broken.
pub fn durable_sweep_with(batches: &[u32]) -> (Vec<MultiFigure>, Vec<DurableStressReport>) {
    let mut calls = Vec::with_capacity(batches.len());
    let mut appends = Vec::with_capacity(batches.len());
    let mut bytes = Vec::with_capacity(batches.len());
    let mut fsyncs = Vec::with_capacity(batches.len());
    let mut snapshots = Vec::with_capacity(batches.len());
    let mut segments = Vec::with_capacity(batches.len());
    let mut replayed = Vec::with_capacity(batches.len());
    let mut replayed_full = Vec::with_capacity(batches.len());
    let mut replayed_calls = Vec::with_capacity(batches.len());
    let mut truncated = Vec::with_capacity(batches.len());
    let mut reports = Vec::with_capacity(batches.len());
    for &per_client in batches {
        let report = run_durable_stress(&DurableStressConfig {
            clients: CLIENTS,
            batches_per_client: per_client as usize,
            calls_per_batch: CALLS_PER_BATCH,
            segment_bytes: SEGMENT_BYTES,
            snapshot_every: SNAPSHOT_EVERY,
        })
        .expect("durable stress run failed");
        // The uncompacted twin: snapshots off, so recovery replays the
        // whole journal — the linear curve the cadence bends flat.
        let full = run_durable_stress(&DurableStressConfig {
            clients: CLIENTS,
            batches_per_client: per_client as usize,
            calls_per_batch: CALLS_PER_BATCH,
            segment_bytes: SEGMENT_BYTES,
            snapshot_every: 0,
        })
        .expect("durable stress run failed");
        replayed_full.push(full.recovery.replayed_executions as f64);
        calls.push(report.calls_executed as f64);
        appends.push(report.appends as f64);
        bytes.push(report.append_bytes as f64);
        fsyncs.push(report.fsyncs as f64);
        snapshots.push(report.snapshots as f64);
        segments.push(report.segments_after as f64);
        replayed.push(report.recovery.replayed_executions as f64);
        replayed_calls.push(report.calls_replayed as f64);
        truncated.push(report.recovery.truncated_records as f64);
        reports.push(report);
    }
    let append_figure = MultiFigure {
        id: "figU1",
        title: format!(
            "Durable append path: {CLIENTS} clients × batches × {CALLS_PER_BATCH} calls, \
             journal accounting vs workload size (deterministic series)"
        ),
        x_label: "batches per client",
        x: batches.to_vec(),
        series: vec![
            ("CallsExecuted", calls),
            ("DurableAppends", appends),
            ("DurableBytes", bytes),
            ("DurableFsyncs", fsyncs),
            ("Snapshots", snapshots),
        ],
    };
    let recovery_figure = MultiFigure {
        id: "figU2",
        title: format!(
            "Recovery vs log size: replay after restart, compacted (cadence {SNAPSHOT_EVERY}) \
             vs the full uncompacted journal"
        ),
        x_label: "batches per client",
        x: batches.to_vec(),
        series: vec![
            ("ReplayedCompacted", replayed),
            ("ReplayedFullLog", replayed_full),
            ("ReplayedCalls", replayed_calls),
            ("SegmentsAtRecovery", segments),
            ("TruncatedRecords", truncated),
        ],
    };
    (vec![append_figure, recovery_figure], reports)
}

/// Prints the wall-clock side of the sweep (not baseline-checked): the
/// append-path overhead against the in-memory twin and the recovery
/// time per point.
pub fn print_measured_overhead(reports: &[DurableStressReport]) {
    println!("append-path overhead and recovery time (wall clock, not baseline-checked):");
    println!(
        "{:>20} {:>14} {:>14} {:>14} {:>16} {:>14}",
        "batches per client", "memory ms", "durable ms", "overhead ×", "replayed/s", "recovery ms"
    );
    for report in reports {
        println!(
            "{:>20} {:>14.2} {:>14.2} {:>14.2} {:>16.0} {:>14.2}",
            report.config.batches_per_client,
            report.elapsed_memory.as_secs_f64() * 1e3,
            report.elapsed_durable.as_secs_f64() * 1e3,
            report.append_overhead(),
            report.replayed_per_sec(),
            report.elapsed_recovery.as_secs_f64() * 1e3,
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_series_are_exact_counts() {
        let (figures, reports) = durable_sweep_with(&[4, 32]);
        let [append_figure, recovery_figure] = figures.as_slice() else {
            panic!("two figures expected");
        };
        // The headline: one append per keyed execution — the lookup plus
        // every batch flush, nothing else — and one fsync per append plus
        // one per snapshot.
        let expected: Vec<f64> = [4u32, 32]
            .iter()
            .map(|&b| (CLIENTS * (1 + b as usize)) as f64)
            .collect();
        assert_eq!(append_figure.series_named("DurableAppends"), &expected[..]);
        let snapshots = append_figure.series_named("Snapshots");
        let fsyncs: Vec<f64> = expected.iter().zip(snapshots).map(|(a, s)| a + s).collect();
        assert_eq!(append_figure.series_named("DurableFsyncs"), &fsyncs[..]);
        // Below the snapshot cadence everything replays; above it the
        // snapshot absorbs a prefix, so the compacted replay tail is
        // shorter than the full-journal twin's.
        assert_eq!(
            recovery_figure.series_named("ReplayedCompacted")[0],
            expected[0]
        );
        assert_eq!(
            recovery_figure.series_named("ReplayedFullLog"),
            &expected[..]
        );
        assert!(
            recovery_figure.series_named("ReplayedCompacted")[1]
                < recovery_figure.series_named("ReplayedFullLog")[1]
        );
        assert_eq!(
            recovery_figure.series_named("TruncatedRecords"),
            &[0.0, 0.0]
        );
        assert!(reports[1].snapshots >= 1);
        // Pinned ids ⇒ bit-identical byte series across runs — the
        // property the committed baseline rests on.
        let (figures_again, _) = durable_sweep_with(&[4, 32]);
        assert_eq!(
            figures_again[0].series_named("DurableBytes"),
            append_figure.series_named("DurableBytes")
        );
    }
}
