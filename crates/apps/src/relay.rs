//! Multi-tier relay workload: client → edge → origin.
//!
//! The reactor stress scenario ([`crate::stress`]) showed one server
//! multiplexing many batching clients; this module adds the batching
//! *topology* on top — an edge tier ([`BatchRelay`]) between the clients
//! and the origin that coalesces their in-flight batches into upstream
//! super-batches, so the origin sees a handful of large round trips
//! instead of one per client batch.
//!
//! ```text
//!  N clients ──TcpPool──▶ edge (reactor + worker pool + BatchRelay) ──TcpPool──▶ origin (epoll reactor)
//! ```
//!
//! Both tiers run on the epoll reactor. The edge's relaying handler
//! *blocks* until its super-batch completes, so the edge reactor uses
//! worker-pool dispatch ([`ReactorConfig::dispatch_workers`]): socket IO
//! stays on two event-loop threads while the flush-waits park on the
//! dispatch workers — the thread-per-connection edge of the original
//! topology is retired. The workload is deterministic by construction:
//! every client runs the same
//! fixed batch shape and a full wave of `clients` batches is exactly one
//! coalescing budget, so the wire-level counts — origin round trips,
//! super-batches, bytes both hops — are reproducible bit for bit and form
//! the committed `BENCH_relay.json` baseline; wall-clock throughput is
//! reported alongside for humans.

use std::sync::Arc;
use std::time::Duration;

use brmi_rmi::Connection;
use brmi_transport::pool::TcpPool;
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_transport::relay::{BatchRelay, RelayPolicy};
use brmi_transport::Transport;
use brmi_wire::RemoteError;

use crate::noop::brmi_noops;
use crate::testkit::{run_wave, NoopOrigin};

/// Shape of one relay stress run.
#[derive(Debug, Clone)]
pub struct RelayStressConfig {
    /// Concurrent client threads (each runs its own batch loop).
    pub clients: usize,
    /// Batches flushed per client.
    pub batches_per_client: usize,
    /// No-op calls folded into each batch.
    pub calls_per_batch: usize,
    /// Origin reactor event-loop threads.
    pub reactor_threads: usize,
    /// Batches the edge coalesces into one origin round trip. The default
    /// ([`RelayStressConfig::default_coalescing`]) is one full wave —
    /// every client's in-flight batch.
    pub coalesce_batches: usize,
    /// Dispatch workers on the edge reactor — the relay handler blocks
    /// until its super-batch completes, so this must cover the peak number
    /// of concurrently waiting batches (the default sizes it to `clients`,
    /// which full-wave coalescing requires).
    pub edge_dispatch_workers: usize,
    /// Upper bound a batch may wait at the edge for company; generous by
    /// default because the workload triggers on the call budget, and a
    /// delay flush would only fire if clients stall pathologically.
    pub max_delay: Duration,
}

impl RelayStressConfig {
    /// A config coalescing one full wave of `clients` batches.
    pub fn default_coalescing(
        clients: usize,
        batches_per_client: usize,
        calls_per_batch: usize,
    ) -> Self {
        RelayStressConfig {
            clients,
            batches_per_client,
            calls_per_batch,
            reactor_threads: 2,
            coalesce_batches: clients,
            edge_dispatch_workers: clients.max(1),
            max_delay: Duration::from_secs(30),
        }
    }
}

/// What one relay stress run did. All count fields are deterministic for a
/// given config; `elapsed` is wall clock.
#[derive(Debug, Clone)]
pub struct RelayStressReport {
    /// The configuration that produced this report.
    pub config: RelayStressConfig,
    /// Round trips the origin actually served (edge-side: forwarded
    /// lookups plus super-batch flushes).
    pub origin_round_trips: u64,
    /// Round trips on the client↔edge hop (lookups plus one per batch).
    pub edge_round_trips: u64,
    /// Upstream flushes the relay performed (super-batches + singletons).
    pub upstream_flushes: u64,
    /// Largest number of batches coalesced into one origin round trip.
    pub largest_group: u64,
    /// No-op invocations the origin executed.
    pub calls_executed: u64,
    /// Request bytes on the edge→origin hop.
    pub upstream_bytes_sent: u64,
    /// Response bytes on the edge→origin hop.
    pub upstream_bytes_received: u64,
    /// Request bytes on the client→edge hop.
    pub edge_bytes_sent: u64,
    /// Wall-clock duration of the client phase.
    pub elapsed: Duration,
}

impl RelayStressReport {
    /// Origin round trips a direct (relay-less) run of the same workload
    /// costs: one lookup per client plus one per batch flush.
    pub fn direct_origin_round_trips(&self) -> u64 {
        (self.config.clients + self.config.clients * self.config.batches_per_client) as u64
    }

    /// How many times fewer origin round trips the relay needed than the
    /// direct topology.
    pub fn round_trip_reduction(&self) -> f64 {
        self.direct_origin_round_trips() as f64 / (self.origin_round_trips as f64).max(1.0)
    }

    /// Remote calls executed per wall-clock second.
    pub fn calls_per_sec(&self) -> f64 {
        self.calls_executed as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// Runs `config`'s worth of clients through an edge relay against a fresh
/// reactor origin and reports what happened.
///
/// # Errors
///
/// Returns the first client error (transport or batch failure); a healthy
/// run never fails.
///
/// # Panics
///
/// Panics when a client thread itself panics.
pub fn run_relay_stress(config: &RelayStressConfig) -> Result<RelayStressReport, RemoteError> {
    // Origin: reactor-served RMI server with batching installed.
    let origin = NoopOrigin::new();
    let reactor = origin.serve(config.reactor_threads)?;

    // Edge: a relay over a pooled upstream, served by a second reactor
    // whose worker pool absorbs the blocking flush-waits.
    let upstream = Arc::new(TcpPool::connect(reactor.local_addr())?);
    let upstream_stats = upstream.stats();
    let relay = BatchRelay::new(
        Arc::clone(&upstream) as Arc<dyn Transport>,
        RelayPolicy::builder()
            .max_coalesced_calls(config.coalesce_batches.max(1) * config.calls_per_batch.max(1))
            .max_delay(config.max_delay)
            .build(),
    );
    let mut edge = ReactorServer::bind_with(
        "127.0.0.1:0",
        relay.clone(),
        ReactorConfig {
            reactor_threads: 2,
            dispatch_workers: config.edge_dispatch_workers.max(1),
            ..ReactorConfig::default()
        },
    )?;

    // Clients: one pool shared by every thread, against the edge.
    let pool = Arc::new(TcpPool::connect(edge.local_addr())?);
    let edge_stats = pool.stats();

    let (batches, calls) = (config.batches_per_client, config.calls_per_batch);
    let wave = run_wave(config.clients, || {
        let conn = Connection::new(pool.clone());
        let root = conn.lookup("noop")?;
        Ok(move || (0..batches).try_for_each(|_| brmi_noops(&conn, &root, calls)))
    });

    let relay_stats = relay.stats();
    let report = wave.map(|elapsed| RelayStressReport {
        config: config.clone(),
        origin_round_trips: upstream_stats.requests(),
        edge_round_trips: edge_stats.requests(),
        upstream_flushes: relay_stats.upstream_flushes(),
        largest_group: relay_stats.largest_group(),
        calls_executed: origin.noop.calls(),
        upstream_bytes_sent: upstream_stats.bytes_sent(),
        upstream_bytes_received: upstream_stats.bytes_received(),
        edge_bytes_sent: edge_stats.bytes_sent(),
        elapsed,
    });

    // Tear down in topology order: edge listener, relay flusher, origin.
    edge.shutdown();
    relay.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_coalesce_exactly_and_deterministically() {
        let config = RelayStressConfig::default_coalescing(8, 4, 5);
        let a = run_relay_stress(&config).unwrap();
        assert_eq!(a.calls_executed, 8 * 4 * 5);
        // Client↔edge: one lookup per client plus one round trip per batch.
        assert_eq!(a.edge_round_trips, 8 + 8 * 4);
        // Edge↔origin: the forwarded lookups plus one super-batch per wave.
        assert_eq!(a.origin_round_trips, 8 + 4);
        assert_eq!(a.upstream_flushes, 4);
        assert_eq!(a.largest_group, 8);
        assert!(a.round_trip_reduction() > 3.0);
        // Fixed workload ⇒ bit-identical wire traffic across runs — the
        // property the committed bench baseline rests on.
        let b = run_relay_stress(&config).unwrap();
        assert_eq!(a.upstream_bytes_sent, b.upstream_bytes_sent);
        assert_eq!(a.upstream_bytes_received, b.upstream_bytes_received);
        assert_eq!(a.edge_bytes_sent, b.edge_bytes_sent);
    }

    #[test]
    fn single_client_degenerates_to_a_transparent_proxy() {
        let config = RelayStressConfig::default_coalescing(1, 3, 2);
        let report = run_relay_stress(&config).unwrap();
        assert_eq!(report.calls_executed, 6);
        // Lookup + one singleton batch per flush: no coalescing possible,
        // and none pretended.
        assert_eq!(report.origin_round_trips, 1 + 3);
        assert_eq!(report.largest_group, 1);
    }
}
