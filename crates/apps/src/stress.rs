//! Many-client stress workload against the reactor transport.
//!
//! The paper's claim is that explicit batching amortizes round-trip
//! latency across many calls; this module supplies the missing half of
//! that argument at scale — *many concurrent clients* driving batches at
//! one server. N client threads share one [`TcpPool`] (each round trip
//! checks out its own pooled socket) against a
//! [`ReactorServer`](brmi_transport::reactor::ReactorServer) running a
//! fixed number of event-loop threads, so the server multiplexes every
//! connection without a thread per client.
//!
//! The workload is deterministic by construction — fixed batch shapes over
//! the no-op service — so the *count* outputs of a run (round trips, calls
//! executed, bytes on the wire) are exactly reproducible and serve as the
//! committed baseline of the `brmi-bench reactor` sweep; wall-clock
//! throughput is reported alongside for humans.
//!
//! [`run_mux_stress`] is the client-side mirror: the *same* caller
//! population served first by one multiplexed socket
//! ([`MuxClient`], bursts coalesced into
//! single vectored writes) and then by the [`TcpPool`] baseline (one
//! socket and one write syscall per concurrent caller and call). Its
//! socket and write-syscall counts are deterministic and form the
//! committed `BENCH_mux.json` baseline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use brmi_obs::{MetricsSnapshot, Registry, Snapshot};
use brmi_rmi::Connection;
use brmi_transport::fault::{FaultPlan, FaultPoint, FaultyTransport};
use brmi_transport::mux::MuxClient;
use brmi_transport::pool::TcpPool;
use brmi_transport::retry::{RetryPolicy, RetryTransport};
use brmi_transport::sim::SimTransport;
use brmi_transport::Transport;
use brmi_wire::protocol::Frame;
use brmi_wire::{ObjectId, RemoteError, RemoteErrorKind};

use crate::noop::brmi_noops;
use crate::testkit::{run_wave, NoopOrigin};

/// Shape of one stress run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Concurrent client threads (each runs its own batch loop).
    pub clients: usize,
    /// Batches flushed per client.
    pub batches_per_client: usize,
    /// No-op calls folded into each batch (one round trip per batch).
    pub calls_per_batch: usize,
    /// Reactor event-loop threads serving all connections.
    pub reactor_threads: usize,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            clients: 32,
            batches_per_client: 25,
            calls_per_batch: 20,
            reactor_threads: 2,
        }
    }
}

/// What one stress run did. The count fields are deterministic for a given
/// [`StressConfig`]; `elapsed` is wall clock.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// The configuration that produced this report.
    pub config: StressConfig,
    /// Client-observed round trips (per-client registry lookup + one per
    /// batch flush).
    pub round_trips: u64,
    /// No-op invocations the server actually executed.
    pub calls_executed: u64,
    /// Request bytes on the wire (client side, payloads without prefixes).
    pub bytes_sent: u64,
    /// Response bytes on the wire.
    pub bytes_received: u64,
    /// Unified registry snapshot of the run's transport, reactor and
    /// executor metrics — deterministic fields only (counters and
    /// gauges), ready for `--metrics-json`.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the client phase.
    pub elapsed: Duration,
}

impl StressReport {
    /// Remote calls executed per wall-clock second.
    pub fn calls_per_sec(&self) -> f64 {
        self.calls_executed as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Round trips completed per wall-clock second.
    pub fn round_trips_per_sec(&self) -> f64 {
        self.round_trips as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// Runs `config`'s worth of concurrent clients against a fresh reactor
/// server and reports what happened.
///
/// # Errors
///
/// Returns the first client error (transport or batch failure); a healthy
/// run never fails.
///
/// # Panics
///
/// Panics when a client thread itself panics.
pub fn run_reactor_stress(config: &StressConfig) -> Result<StressReport, RemoteError> {
    let origin = NoopOrigin::new();
    let reactor = origin.serve(config.reactor_threads)?;
    let pool = Arc::new(TcpPool::connect(reactor.local_addr())?);
    let stats = pool.stats();
    let registry = Registry::new();
    pool.register_metrics(&registry);
    reactor.register_metrics(&registry);
    origin.executor.register_metrics(&registry);
    origin.server.reply_cache().register_metrics(&registry);

    // All clients arm before any starts, so the measured window really has
    // `clients` concurrent request streams.
    let (batches, calls) = (config.batches_per_client, config.calls_per_batch);
    let elapsed = run_wave(config.clients, || {
        let conn = Connection::new(pool.clone());
        let root = conn.lookup("noop")?;
        Ok(move || (0..batches).try_for_each(|_| brmi_noops(&conn, &root, calls)))
    })?;

    Ok(StressReport {
        config: config.clone(),
        round_trips: stats.requests(),
        calls_executed: origin.noop.calls(),
        bytes_sent: stats.bytes_sent(),
        bytes_received: stats.bytes_received(),
        metrics: registry.snapshot().deterministic_only(),
        elapsed,
    })
}

/// Shape of one mux-vs-pool stress run.
#[derive(Debug, Clone)]
pub struct MuxStressConfig {
    /// Concurrent caller threads sharing the one mux socket (and, in the
    /// baseline phase, the connection pool).
    pub callers: usize,
    /// Call bursts each caller issues.
    pub bursts_per_caller: usize,
    /// No-op calls per burst — one mux frame each, pipelined; the pool
    /// baseline pays one full round trip each.
    pub calls_per_burst: usize,
    /// Origin reactor event-loop threads.
    pub reactor_threads: usize,
}

impl Default for MuxStressConfig {
    fn default() -> Self {
        MuxStressConfig {
            callers: 32,
            bursts_per_caller: 8,
            calls_per_burst: 16,
            reactor_threads: 2,
        }
    }
}

/// What one mux-vs-pool run did. Socket, frame and write-syscall counts
/// are deterministic for a given config; the elapsed fields are wall
/// clock.
#[derive(Debug, Clone)]
pub struct MuxStressReport {
    /// The configuration that produced this report.
    pub config: MuxStressConfig,
    /// No-op invocations executed in each phase (mux and pool runs execute
    /// the same count).
    pub calls_executed: u64,
    /// Request frames the mux client sent (lookup + one per call).
    pub mux_frames: u64,
    /// Write syscalls the mux client performed: the lookup plus one
    /// vectored write per burst — `calls_per_burst` frames per syscall.
    pub mux_write_syscalls: u64,
    /// Sockets the mux phase held to the origin (always 1).
    pub mux_sockets: u64,
    /// Request bytes the mux client sent (payloads, excluding envelopes).
    pub mux_bytes_sent: u64,
    /// Response bytes the mux client received.
    pub mux_bytes_received: u64,
    /// Round trips the pool baseline performed (lookup + one per call) —
    /// also its write-syscall count, at one vectored write per frame.
    pub pool_round_trips: u64,
    /// Sockets the pool baseline needs for `callers` concurrent callers
    /// (one each — the quantity the mux collapses to 1).
    pub pool_sockets: u64,
    /// Wall-clock duration of the mux caller phase.
    pub elapsed_mux: Duration,
    /// Wall-clock duration of the pool caller phase.
    pub elapsed_pool: Duration,
}

impl MuxStressReport {
    /// Write syscalls per executed call on the mux path.
    pub fn mux_syscalls_per_call(&self) -> f64 {
        self.mux_write_syscalls as f64 / (self.calls_executed as f64).max(1.0)
    }

    /// Write syscalls per executed call on the pool path (1.0: one
    /// vectored write per round trip).
    pub fn pool_syscalls_per_call(&self) -> f64 {
        self.pool_round_trips as f64 / (self.calls_executed as f64).max(1.0)
    }

    /// Mux-phase calls per wall-clock second.
    pub fn mux_calls_per_sec(&self) -> f64 {
        self.calls_executed as f64 / self.elapsed_mux.as_secs_f64().max(f64::EPSILON)
    }

    /// Pool-phase calls per wall-clock second.
    pub fn pool_calls_per_sec(&self) -> f64 {
        self.calls_executed as f64 / self.elapsed_pool.as_secs_f64().max(f64::EPSILON)
    }
}

/// Runs the same caller population over one multiplexed socket and then
/// over the pooled baseline, against fresh reactor origins, and reports
/// the socket/syscall economics of each.
///
/// # Errors
///
/// Returns the first caller error; a healthy run never fails.
///
/// # Panics
///
/// Panics when a caller thread itself panics.
pub fn run_mux_stress(config: &MuxStressConfig) -> Result<MuxStressReport, RemoteError> {
    let noop_call = |target: ObjectId| Frame::Call {
        key: None,
        target,
        method: "noop".into(),
        args: vec![],
    };
    let expect_return = |frame: Frame| -> Result<(), RemoteError> {
        match frame {
            Frame::Return(_) => Ok(()),
            Frame::Error(env) => Err(RemoteError::from(&env)),
            other => Err(RemoteError::transport(format!(
                "unexpected reply frame: {}",
                other.kind_name()
            ))),
        }
    };

    let (bursts, calls) = (config.bursts_per_caller, config.calls_per_burst);

    // Phase 1: every caller multiplexed over ONE socket, bursts pipelined.
    let mux_origin = NoopOrigin::new();
    let mux_reactor = mux_origin.serve(config.reactor_threads)?;
    let mux = MuxClient::connect(mux_reactor.local_addr())?;
    let target = Connection::new(mux.clone() as Arc<dyn Transport>)
        .lookup("noop")?
        .id();
    let mux_sockets = mux_reactor.active_connections() as u64;
    let elapsed_mux = run_wave(config.callers, || {
        let mux = &mux;
        let frames: Vec<Frame> = (0..calls).map(|_| noop_call(target)).collect();
        Ok(move || {
            for _ in 0..bursts {
                // One vectored write ships the whole burst; replies are
                // claimed as they land in the per-call slots.
                for pending in mux.call_burst(&frames)? {
                    expect_return(pending.wait()?)?;
                }
            }
            Ok(())
        })
    })?;
    let mux_stats = mux.stats();
    let (mux_frames, mux_write_syscalls) = (mux.frames_sent(), mux.write_syscalls());
    let (mux_bytes_sent, mux_bytes_received) = (mux_stats.bytes_sent(), mux_stats.bytes_received());
    let mux_calls = mux_origin.noop.calls();
    drop(mux);
    drop(mux_reactor);

    // Phase 2: the pooled baseline — same workload, one socket and one
    // write syscall per concurrent caller and call.
    let pool_origin = NoopOrigin::new();
    let pool_reactor = pool_origin.serve(config.reactor_threads)?;
    let pool = Arc::new(TcpPool::connect(pool_reactor.local_addr())?);
    let pool_stats = pool.stats();
    let target = Connection::new(pool.clone() as Arc<dyn Transport>)
        .lookup("noop")?
        .id();
    let elapsed_pool = run_wave(config.callers, || {
        let pool = &pool;
        Ok(move || {
            (0..bursts * calls).try_for_each(|_| expect_return(pool.request(noop_call(target))?))
        })
    })?;
    let pool_calls = pool_origin.noop.calls();
    if mux_calls != pool_calls {
        return Err(RemoteError::new(
            RemoteErrorKind::Protocol,
            format!(
                "the mux phase executed {mux_calls} calls and the pool phase {pool_calls}; \
                 the phases run identical workloads"
            ),
        ));
    }

    Ok(MuxStressReport {
        config: config.clone(),
        calls_executed: mux_calls,
        mux_frames,
        mux_write_syscalls,
        mux_sockets,
        mux_bytes_sent,
        mux_bytes_received,
        pool_round_trips: pool_stats.requests(),
        pool_sockets: config.callers as u64,
        elapsed_mux,
        elapsed_pool,
    })
}

/// Shape of one keyed-retry goodput run.
#[derive(Debug, Clone)]
pub struct RetryStressConfig {
    /// Clients run one after another — sequencing keeps every count
    /// deterministic, since each client owns its seeded lossy link.
    pub clients: usize,
    /// Keyed batches flushed per client.
    pub batches_per_client: usize,
    /// No-op calls folded into each batch.
    pub calls_per_batch: usize,
    /// Drop probability per request and per reply, in thousandths.
    pub drop_per_mille: u16,
    /// Base seed; each client derives its own request and reply drop
    /// schedules from it.
    pub seed: u64,
}

impl Default for RetryStressConfig {
    fn default() -> Self {
        RetryStressConfig {
            clients: 8,
            batches_per_client: 16,
            calls_per_batch: 10,
            drop_per_mille: 100,
            seed: 0x5EED_CAFE,
        }
    }
}

/// What one keyed-retry run did. Every count field is deterministic for a
/// given [`RetryStressConfig`]; `elapsed` is wall clock.
#[derive(Debug, Clone)]
pub struct RetryStressReport {
    /// The configuration that produced this report.
    pub config: RetryStressConfig,
    /// No-op invocations the origin actually executed — equal to
    /// `clients × batches × calls` at *every* drop rate, which is the
    /// exactly-once story in one number.
    pub calls_executed: u64,
    /// Faults injected across both lossy layers (requests and replies).
    pub injected_drops: u64,
    /// Re-sends the clients' retry layers performed (excludes first
    /// attempts).
    pub client_resends: u64,
    /// Keyed frames the origin executed fresh.
    pub origin_executions: u64,
    /// Duplicate keyed frames the origin answered from its reply cache.
    pub origin_replays: u64,
    /// Unified registry snapshot of the origin-side executor and replay
    /// metrics — deterministic fields only, ready for `--metrics-json`.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the client phase.
    pub elapsed: Duration,
}

impl RetryStressReport {
    /// Successfully executed calls per wall-clock second — goodput, which
    /// degrades gracefully with the drop rate while `calls_executed` stays
    /// exact.
    pub fn goodput_calls_per_sec(&self) -> f64 {
        self.calls_executed as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Re-sends per executed call (the retry overhead ratio).
    pub fn resend_overhead(&self) -> f64 {
        self.client_resends as f64 / (self.calls_executed as f64).max(1.0)
    }
}

/// Runs keyed clients over seeded lossy links with transparent retries
/// against one origin, and reports exactly-once accounting.
///
/// Each client gets its own request-drop and reply-drop layers (seeded
/// from `config.seed` and the client index) under a
/// [`RetryTransport`]; the origin's reply cache absorbs every re-sent
/// duplicate. Clients run sequentially so all counters are exactly
/// reproducible and can serve as a committed bench baseline.
///
/// # Errors
///
/// Returns the first client error. With the 32-attempt budget a round trip
/// failing outright needs ~2⁻³² of bad luck per mille configured, so a
/// healthy run never fails.
pub fn run_retry_stress(config: &RetryStressConfig) -> Result<RetryStressReport, RemoteError> {
    let origin = NoopOrigin::new();
    let registry = Registry::new();
    origin.executor.register_metrics(&registry);
    origin.server.reply_cache().register_metrics(&registry);

    let mut injected_drops = 0u64;
    let mut client_resends = 0u64;
    let started = Instant::now();
    for client in 0..config.clients {
        let seed = config
            .seed
            .wrapping_add(client as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let requests = FaultyTransport::with_fault_point(
            SimTransport::in_process(origin.server.clone()),
            FaultPlan::Seeded {
                seed,
                drop_per_mille: config.drop_per_mille,
            },
            FaultPoint::Request,
        );
        let replies = FaultyTransport::with_fault_point(
            Arc::clone(&requests) as Arc<dyn Transport>,
            FaultPlan::Seeded {
                seed: seed.rotate_left(19) ^ 0xBAD5_EED0_F00D_CAFE,
                drop_per_mille: config.drop_per_mille,
            },
            FaultPoint::Reply,
        );
        let retried = RetryTransport::over(
            Arc::clone(&replies) as Arc<dyn Transport>,
            RetryPolicy::immediate(32),
        );
        let conn = Connection::new_keyed(Arc::clone(&retried) as Arc<dyn Transport>);
        let root = conn.lookup("noop")?;
        for _ in 0..config.batches_per_client {
            brmi_noops(&conn, &root, config.calls_per_batch)?;
        }
        injected_drops += requests.injected() + replies.injected();
        client_resends += retried.retries();
    }
    let elapsed = started.elapsed();

    Ok(RetryStressReport {
        config: config.clone(),
        calls_executed: origin.noop.calls(),
        injected_drops,
        client_resends,
        origin_executions: origin.server.reply_cache().executions(),
        origin_replays: origin.server.reply_cache().replays(),
        metrics: registry.snapshot().deterministic_only(),
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_and_deterministic() {
        let config = StressConfig {
            clients: 4,
            batches_per_client: 3,
            calls_per_batch: 5,
            reactor_threads: 2,
        };
        let a = run_reactor_stress(&config).unwrap();
        assert_eq!(a.calls_executed, 4 * 3 * 5);
        // One lookup per client plus one round trip per batch.
        assert_eq!(a.round_trips, 4 + 4 * 3);
        // The workload is fixed, so the wire traffic is bit-identical
        // across runs — the property the committed bench baseline rests on.
        let b = run_reactor_stress(&config).unwrap();
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.bytes_received, b.bytes_received);
    }

    #[test]
    fn single_client_degenerate_case_works() {
        let config = StressConfig {
            clients: 1,
            batches_per_client: 2,
            calls_per_batch: 1,
            reactor_threads: 1,
        };
        let report = run_reactor_stress(&config).unwrap();
        assert_eq!(report.calls_executed, 2);
        assert_eq!(report.round_trips, 3);
        assert!(report.calls_per_sec() > 0.0);
        assert!(report.round_trips_per_sec() > 0.0);
    }

    #[test]
    fn mux_counts_are_exact_and_deterministic() {
        let config = MuxStressConfig {
            callers: 4,
            bursts_per_caller: 3,
            calls_per_burst: 5,
            reactor_threads: 2,
        };
        let a = run_mux_stress(&config).unwrap();
        assert_eq!(a.calls_executed, 4 * 3 * 5);
        // One lookup frame plus one frame per call, over exactly one
        // socket; one vectored write per burst (plus the lookup's).
        assert_eq!(a.mux_frames, 1 + 4 * 3 * 5);
        assert_eq!(a.mux_write_syscalls, 1 + 4 * 3);
        assert_eq!(a.mux_sockets, 1);
        // The pool baseline pays one round trip (= one vectored write) per
        // call and one socket per concurrent caller.
        assert_eq!(a.pool_round_trips, 1 + 4 * 3 * 5);
        assert_eq!(a.pool_sockets, 4);
        assert!(a.mux_syscalls_per_call() < a.pool_syscalls_per_call());
        // Fixed workload ⇒ bit-identical wire traffic across runs — the
        // property the committed bench baseline rests on.
        let b = run_mux_stress(&config).unwrap();
        assert_eq!(a.mux_bytes_sent, b.mux_bytes_sent);
        assert_eq!(a.mux_bytes_received, b.mux_bytes_received);
        assert_eq!(a.mux_write_syscalls, b.mux_write_syscalls);
    }

    #[test]
    fn retry_stress_executes_exactly_once_under_drops() {
        let config = RetryStressConfig {
            clients: 3,
            batches_per_client: 4,
            calls_per_batch: 5,
            drop_per_mille: 200,
            seed: 42,
        };
        let a = run_retry_stress(&config).unwrap();
        // The exactly-once headline: drops never lose or duplicate a call.
        assert_eq!(a.calls_executed, 3 * 4 * 5);
        // One keyed lookup plus one keyed batch per flush, each executed
        // exactly once no matter how often it was re-sent.
        assert_eq!(a.origin_executions, 3 * (1 + 4));
        assert!(a.injected_drops > 0, "200‰ over 15 round trips must strike");
        // Every dropped *keyed* frame is answered by exactly one re-send;
        // dropped best-effort unkeyed frames (reference releases) are
        // counted but not retried.
        assert!(a.client_resends > 0);
        assert!(a.client_resends <= a.injected_drops);
        // Seeded schedules ⇒ bit-identical counts across runs — the
        // property the committed bench baseline rests on.
        let b = run_retry_stress(&config).unwrap();
        assert_eq!(a.injected_drops, b.injected_drops);
        assert_eq!(a.client_resends, b.client_resends);
        assert_eq!(a.origin_replays, b.origin_replays);
    }

    #[test]
    fn retry_stress_clean_link_never_retries() {
        let config = RetryStressConfig {
            clients: 2,
            batches_per_client: 3,
            calls_per_batch: 4,
            drop_per_mille: 0,
            seed: 7,
        };
        let report = run_retry_stress(&config).unwrap();
        assert_eq!(report.calls_executed, 2 * 3 * 4);
        assert_eq!(report.injected_drops, 0);
        assert_eq!(report.client_resends, 0);
        assert_eq!(report.origin_replays, 0);
        assert_eq!(report.resend_overhead(), 0.0);
        assert!(report.goodput_calls_per_sec() > 0.0);
    }

    #[test]
    fn mux_single_caller_degenerate_case_works() {
        let config = MuxStressConfig {
            callers: 1,
            bursts_per_caller: 2,
            calls_per_burst: 3,
            reactor_threads: 1,
        };
        let report = run_mux_stress(&config).unwrap();
        assert_eq!(report.calls_executed, 6);
        assert_eq!(report.mux_write_syscalls, 1 + 2);
        assert!(report.mux_calls_per_sec() > 0.0);
        assert!(report.pool_calls_per_sec() > 0.0);
    }
}
