//! Durable-origin stress workload: what crash recoverability *costs* on
//! the append path, and what recovery replay costs per journaled record.
//!
//! Three phases over the same keyed no-op workload:
//!
//! 1. **In-memory twin** — the identical workload against an origin with
//!    no journal attached, timed as the wall-clock baseline;
//! 2. **Durable run** — the origin journals every keyed execution
//!    (append + CRC frame + fsync before the reply is released) into a
//!    [`TempDir`]-guarded log, with the configured snapshot cadence
//!    compacting covered segments as it goes;
//! 3. **Recovery** — a fresh origin incarnation reopens the directory via
//!    `attach_durable`, restoring the newest snapshot and re-executing
//!    the journaled tail.
//!
//! Clients run sequentially with **pinned** client ids
//! ([`KeySource::with_client_id`]), so every journaled byte — keys,
//! request frames, replies, snapshot payloads — is identical run to run.
//! The count fields of the report (appends, bytes, fsyncs, snapshots,
//! replayed executions) are therefore exact and serve as the committed
//! `BENCH_durable.json` baseline; the wall-clock fields (append-path
//! overhead vs the in-memory twin, recovery time) are for humans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use brmi_durable::{LogConfig, TempDir};
use brmi_obs::{MetricsSnapshot, Registry, Snapshot};
use brmi_rmi::{Connection, DurableOptions, DurableReport, KeySource, RmiServer};
use brmi_transport::sim::SimTransport;
use brmi_transport::Transport;
use brmi_wire::{RemoteError, RemoteErrorKind};

use crate::noop::brmi_noops;
use crate::testkit::NoopOrigin;

/// Shape of one durable stress run.
#[derive(Debug, Clone)]
pub struct DurableStressConfig {
    /// Sequential keyed clients (pinned client ids keep the journal
    /// bytes reproducible).
    pub clients: usize,
    /// Keyed batches flushed per client (plus one keyed lookup each).
    pub batches_per_client: usize,
    /// No-op calls folded into each batch.
    pub calls_per_batch: usize,
    /// Segment roll size for the log.
    pub segment_bytes: u64,
    /// Compacted-snapshot cadence in keyed executions (`0` disables).
    pub snapshot_every: u64,
}

impl Default for DurableStressConfig {
    fn default() -> Self {
        DurableStressConfig {
            clients: 4,
            batches_per_client: 16,
            calls_per_batch: 8,
            segment_bytes: 16 * 1024,
            snapshot_every: 64,
        }
    }
}

/// What one durable stress run did. Every count field is deterministic
/// for a given [`DurableStressConfig`]; the `elapsed_*` fields are wall
/// clock.
#[derive(Debug, Clone)]
pub struct DurableStressReport {
    /// The configuration that produced this report.
    pub config: DurableStressConfig,
    /// No-op invocations the durable origin executed.
    pub calls_executed: u64,
    /// Records appended to the journal (one per keyed execution).
    pub appends: u64,
    /// Bytes physically written (record frames + snapshot payloads).
    pub append_bytes: u64,
    /// `fsync` calls the log issued.
    pub fsyncs: u64,
    /// Compacted snapshots written by the cadence.
    pub snapshots: u64,
    /// Live segment files when the workload finished (snapshots
    /// garbage-collect covered ones).
    pub segments_after: u64,
    /// What recovery found and rebuilt.
    pub recovery: DurableReport,
    /// No-op invocations re-executed during recovery replay (the part of
    /// the workload not absorbed by the snapshot).
    pub calls_replayed: u64,
    /// Unified registry snapshot of the durable and replay metric
    /// families — deterministic fields only, ready for `--metrics-json`.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the in-memory twin workload.
    pub elapsed_memory: Duration,
    /// Wall-clock duration of the journaled workload.
    pub elapsed_durable: Duration,
    /// Wall-clock duration of `attach_durable` on the recovery
    /// incarnation (snapshot restore + journal replay).
    pub elapsed_recovery: Duration,
}

impl DurableStressReport {
    /// Append-path wall-clock overhead: durable elapsed over the
    /// in-memory twin's (≥ 1.0 in practice; fsyncs dominate).
    pub fn append_overhead(&self) -> f64 {
        self.elapsed_durable.as_secs_f64() / self.elapsed_memory.as_secs_f64().max(f64::EPSILON)
    }

    /// Journaled keyed executions recovered per wall-clock second of
    /// replay.
    pub fn replayed_per_sec(&self) -> f64 {
        self.recovery.replayed_executions as f64
            / self.elapsed_recovery.as_secs_f64().max(f64::EPSILON)
    }
}

/// Runs the keyed workload: sequential clients with pinned ids, one
/// keyed lookup plus `batches_per_client` keyed flushes each.
fn run_clients(server: &Arc<RmiServer>, config: &DurableStressConfig) -> Result<(), RemoteError> {
    for client in 0..config.clients {
        let transport = Arc::new(SimTransport::in_process(server.clone())) as Arc<dyn Transport>;
        let conn = Connection::with_key_source(
            transport,
            KeySource::with_client_id(0xD0_0000 + client as u64),
        );
        let root = conn.lookup("noop")?;
        for _ in 0..config.batches_per_client {
            brmi_noops(&conn, &root, config.calls_per_batch)?;
        }
    }
    Ok(())
}

fn durable_options(config: &DurableStressConfig) -> DurableOptions {
    DurableOptions {
        log: LogConfig {
            segment_bytes: config.segment_bytes,
            ..LogConfig::default()
        },
        snapshot_every: config.snapshot_every,
    }
}

/// Runs the three phases and reports the journal's exact accounting plus
/// the wall-clock costs.
///
/// # Errors
///
/// Returns the first client or attach error; a healthy run never fails.
pub fn run_durable_stress(
    config: &DurableStressConfig,
) -> Result<DurableStressReport, RemoteError> {
    // Every incarnation runs the same deterministic setup (the
    // `attach_durable` contract). Phase 1: the in-memory twin — same
    // workload, no journal.
    let twin = NoopOrigin::new();
    let started = Instant::now();
    run_clients(&twin.server, config)?;
    let elapsed_memory = started.elapsed();

    // Phase 2: the journaled origin. The tempdir guard removes the log
    // even when an assert below panics.
    let dir = TempDir::new("durable-stress");
    let NoopOrigin { server, noop, .. } = NoopOrigin::new();
    server
        .attach_durable(dir.path(), durable_options(config))
        .map_err(|err| RemoteError::transport(format!("attach durable log: {err}")))?;
    let journal = server.journal().expect("journal attached");
    let registry = Registry::new();
    journal.register_metrics(&registry);
    server.reply_cache().register_metrics(&registry);
    let started = Instant::now();
    run_clients(&server, config)?;
    let elapsed_durable = started.elapsed();
    // The last cadence snapshot may still be on the writer: its count,
    // its reclaimed segments and the file recovery reads must all land
    // before they are read.
    journal.wait_snapshots();
    let stats = journal.stats();
    let segments_after = journal.log().segment_count() as u64;
    let calls_executed = noop.calls();
    // The workload is identical and deterministic, so any difference is a
    // lost or doubled execution.
    let twin_calls = twin.noop.calls();
    if twin_calls != calls_executed {
        return Err(RemoteError::new(
            RemoteErrorKind::Protocol,
            format!(
                "the journaled origin executed {calls_executed} calls and its in-memory twin \
                 {twin_calls}"
            ),
        ));
    }

    // Phase 3: recovery — a fresh incarnation reopens the directory.
    let recovered = NoopOrigin::new();
    let started = Instant::now();
    let recovery = recovered
        .server
        .attach_durable(dir.path(), durable_options(config))
        .map_err(|err| RemoteError::transport(format!("recover durable log: {err}")))?;
    let elapsed_recovery = started.elapsed();

    Ok(DurableStressReport {
        config: config.clone(),
        calls_executed,
        appends: stats.appends,
        append_bytes: stats.bytes,
        fsyncs: stats.fsyncs,
        snapshots: stats.snapshots,
        segments_after,
        recovery,
        calls_replayed: recovered.noop.calls(),
        metrics: registry.snapshot().deterministic_only(),
        elapsed_memory,
        elapsed_durable,
        elapsed_recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_and_deterministic() {
        let config = DurableStressConfig {
            clients: 3,
            batches_per_client: 4,
            calls_per_batch: 5,
            segment_bytes: 4 * 1024,
            snapshot_every: 0,
        };
        let a = run_durable_stress(&config).unwrap();
        assert_eq!(a.calls_executed, 3 * 4 * 5);
        // One keyed lookup plus one keyed batch per flush, each appended
        // exactly once.
        assert_eq!(a.appends, 3 * (1 + 4));
        // Sequential clients: every append is its own group commit.
        assert_eq!(a.fsyncs, a.appends);
        assert_eq!(a.snapshots, 0);
        // Snapshots disabled ⇒ recovery replays the full journal and
        // re-executes every call.
        assert_eq!(a.recovery.replayed_executions, a.appends);
        assert!(!a.recovery.restored_snapshot);
        assert_eq!(a.recovery.truncated_records, 0);
        assert_eq!(a.calls_replayed, a.calls_executed);
        // Pinned ids + fixed workload ⇒ bit-identical journals across
        // runs — the property the committed bench baseline rests on.
        let b = run_durable_stress(&config).unwrap();
        assert_eq!(a.appends, b.appends);
        assert_eq!(a.append_bytes, b.append_bytes);
        assert_eq!(a.fsyncs, b.fsyncs);
    }

    #[test]
    fn counts_are_deterministic_with_snapshots_on() {
        // (batches per client, segments after, replayed executions): the
        // values of the synchronous snapshot path, which wrote the file
        // before the reply left. With 15 batches the last execution
        // crosses the cadence, so its snapshot is still on the writer
        // when the workload ends; with 12, seven records follow the last
        // snapshot across a size rotation.
        for (batches, segments_after, replayed) in [(12, 2, 7), (15, 1, 0)] {
            let config = DurableStressConfig {
                clients: 3,
                batches_per_client: batches,
                calls_per_batch: 5,
                segment_bytes: 512,
                snapshot_every: 8,
            };
            let a = run_durable_stress(&config).unwrap();
            assert_eq!(a.appends, 3 * (1 + batches as u64));
            assert_eq!(a.snapshots, a.appends / 8);
            // Where the segments were cut and what the last snapshot
            // covers follow from the execution sequence alone, not from
            // how fast the snapshot writer ran.
            assert_eq!(a.segments_after, segments_after, "{batches} batches");
            assert_eq!(
                a.recovery.replayed_executions, replayed,
                "{batches} batches"
            );
            let b = run_durable_stress(&config).unwrap();
            assert_eq!(
                (a.appends, a.append_bytes, a.fsyncs, a.snapshots),
                (b.appends, b.append_bytes, b.fsyncs, b.snapshots)
            );
            assert_eq!(a.segments_after, b.segments_after);
            assert_eq!(a.recovery, b.recovery);
            assert_eq!(a.calls_replayed, b.calls_replayed);
        }
    }

    #[test]
    fn snapshot_cadence_compacts_and_shortens_replay() {
        let config = DurableStressConfig {
            clients: 2,
            batches_per_client: 12,
            calls_per_batch: 4,
            segment_bytes: 2 * 1024,
            snapshot_every: 8,
        };
        let report = run_durable_stress(&config).unwrap();
        assert!(report.snapshots >= 1, "cadence must fire: {report:?}");
        assert!(report.recovery.restored_snapshot);
        // The snapshot absorbed a prefix: replay re-executes strictly
        // fewer records (and fewer calls) than the workload ran.
        assert!(report.recovery.replayed_executions < report.appends);
        assert!(report.calls_replayed < report.calls_executed);
        assert!(report.append_overhead() > 0.0);
        assert!(report.replayed_per_sec() >= 0.0);
    }
}
