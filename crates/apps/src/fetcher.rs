//! Hot-key read workload through a [`BatchFetcher`]: many clients, few keys.
//!
//! The relay workload ([`crate::relay`]) shows round *trips* collapsing;
//! this one shows origin *executions* collapsing. A fleet of clients
//! hammers the same small set of `#[read_only]` bank queries — the
//! "everyone polls the same dashboard" shape — and the fetcher serves the
//! repeats from its keyed cache, so the origin executes each distinct
//! (object, method, args) read **once** no matter how many clients ask.
//!
//! ```text
//!  N clients ──batches of hot reads──▶ BatchFetcher ──probe per distinct key──▶ origin
//! ```
//!
//! The workload is deterministic by construction: a warm phase (one batch
//! over every hot key) populates the cache with exactly `hot_keys` origin
//! executions, then the concurrent phase is all cache hits — the origin's
//! executed-call counter comes from [`ExecutorStats`], which counts
//! *executions*, not round trips, so the committed `BENCH_fetcher.json`
//! baseline is reproducible bit for bit. Pass-through mode
//! ([`FetcherStressConfig::passthrough`]) runs the identical client
//! program with no fetcher for the comparison column.
//!
//! [`BatchFetcher`]: brmi_transport::fetcher::BatchFetcher
//! [`ExecutorStats`]: brmi::executor::ExecutorStats

use std::sync::Arc;
use std::time::Duration;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor};
use brmi_obs::{MetricsSnapshot, Registry, Snapshot};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::fetcher::BatchFetcher;
use brmi_transport::relay::ReadCachePolicy;
use brmi_transport::sim::SimTransport;
use brmi_transport::RequestHandler;
use brmi_wire::{MethodRegistry, RemoteError};

use crate::bank::{
    BCreditCard, Bank, CreditCard, CreditCardSkeleton, CreditManagerSkeleton, CreditManagerStub,
};
use crate::testkit::run_wave;

/// Shape of one fetcher stress run.
#[derive(Debug, Clone)]
pub struct FetcherStressConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Read batches flushed per client (each covers every hot key).
    pub batches_per_client: usize,
    /// Distinct hot accounts (= distinct cache keys).
    pub hot_keys: usize,
    /// Read-cache knobs, or `None` to bypass the fetcher entirely (the
    /// pass-through comparison column).
    pub cache: Option<ReadCachePolicy>,
}

impl FetcherStressConfig {
    /// A cached run: TTL far beyond the run's duration and capacity
    /// covering every hot key, so the concurrent phase is deterministic
    /// (all hits — no expiry or eviction mid-run).
    pub fn cached(clients: usize, batches_per_client: usize, hot_keys: usize) -> Self {
        FetcherStressConfig {
            clients,
            batches_per_client,
            hot_keys,
            cache: Some(ReadCachePolicy {
                ttl: Duration::from_secs(300),
                capacity: hot_keys.max(1) * 2,
            }),
        }
    }

    /// The identical client program with no fetcher in the path.
    pub fn passthrough(clients: usize, batches_per_client: usize, hot_keys: usize) -> Self {
        FetcherStressConfig {
            clients,
            batches_per_client,
            hot_keys,
            cache: None,
        }
    }
}

/// What one fetcher stress run did. Every count is deterministic for a
/// given config; `elapsed` is wall clock.
#[derive(Debug, Clone)]
pub struct FetcherStressReport {
    /// The configuration that produced this report.
    pub config: FetcherStressConfig,
    /// Read calls the clients issued: `(1 + clients × batches) × hot_keys`
    /// (the leading 1 is the warm batch).
    pub client_read_calls: u64,
    /// Batched calls the origin executor actually executed — the number
    /// the cache exists to shrink.
    pub origin_executed_calls: u64,
    /// The `#[read_only]` subset of `origin_executed_calls`.
    pub origin_read_calls: u64,
    /// Cache lookups performed by the fetcher (0 in pass-through mode).
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that piggybacked on an in-flight probe.
    pub coalesced: u64,
    /// Lookups that probed the origin.
    pub misses: u64,
    /// Probe batches the fetcher sent upstream.
    pub probe_batches: u64,
    /// Unified registry snapshot of the run's fetcher and executor
    /// metrics — deterministic fields only (counters and gauges), ready
    /// for `--metrics-json`.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the concurrent phase.
    pub elapsed: Duration,
}

impl FetcherStressReport {
    /// Fraction of client read calls that cost the origin nothing.
    pub fn absorbed_ratio(&self) -> f64 {
        if self.client_read_calls == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / self.client_read_calls as f64
    }

    /// How many times fewer origin executions this run needed than
    /// `baseline` (the pass-through run of the same client program).
    pub fn execution_reduction(&self, baseline: &FetcherStressReport) -> f64 {
        baseline.origin_executed_calls as f64 / (self.origin_executed_calls as f64).max(1.0)
    }
}

/// One read batch covering every hot account, validated against the known
/// per-account balances (account `i` owes `i + 1`).
fn read_hot_keys(conn: &Connection, refs: &[RemoteRef]) -> Result<(), RemoteError> {
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let balances: Vec<_> = refs
        .iter()
        .map(|account| BCreditCard::new(&batch, account).get_balance())
        .collect();
    batch.flush()?;
    for (i, balance) in balances.iter().enumerate() {
        let expected = (i + 1) as f64;
        let got = balance.get()?;
        if got != expected {
            return Err(RemoteError::application(
                "StaleReadException",
                format!("account {i}: read {got}, origin holds {expected}"),
            ));
        }
    }
    Ok(())
}

/// Runs `config`'s worth of hot-key readers and reports what happened.
///
/// # Errors
///
/// Returns the first client error — including a read that observed a value
/// the origin never held (the workload checks every balance it reads).
///
/// # Panics
///
/// Panics when a client thread itself panics.
pub fn run_fetcher_stress(
    config: &FetcherStressConfig,
) -> Result<FetcherStressReport, RemoteError> {
    // Origin: an RMI server with batching installed and one hot account
    // per key, each holding a distinct balance so stale reads are visible.
    let origin = RmiServer::new();
    let executor = BatchExecutor::install(&origin);
    let bank = Bank::new();
    for i in 0..config.hot_keys {
        let account = bank.open_account(&format!("cust-{i}"), 1_000.0);
        account
            .make_purchase((i + 1) as f64)
            .expect("seed purchase fits the limit");
    }
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank))
        .expect("fresh origin bind");

    // Read tier: the fetcher (when configured) fronting the origin, with
    // metadata from both bank interfaces.
    let origin_handler: Arc<dyn RequestHandler> = origin;
    let fetcher = config.cache.map(|policy| {
        let registry = Arc::new(MethodRegistry::of(&[
            CreditCardSkeleton::INTERFACE_META,
            CreditManagerSkeleton::INTERFACE_META,
        ]));
        BatchFetcher::new(Arc::clone(&origin_handler), registry, policy)
    });
    let serving: Arc<dyn RequestHandler> = match &fetcher {
        Some(fetcher) => Arc::clone(fetcher) as Arc<dyn RequestHandler>,
        None => Arc::clone(&origin_handler),
    };
    let transport = Arc::new(SimTransport::in_process(serving));

    // Resolve the hot accounts once (plain RMI lookups — these are not
    // batched calls, so they never count as origin executions) and warm
    // the cache with one full read batch.
    let conn = Connection::new(transport);
    let root = conn.lookup("bank")?;
    let manager = CreditManagerStub::new(root);
    let refs: Vec<RemoteRef> = (0..config.hot_keys)
        .map(|i| {
            manager
                .find_credit_account(format!("cust-{i}"))
                .map(|stub| stub.remote_ref().clone())
        })
        .collect::<Result<_, _>>()?;
    read_hot_keys(&conn, &refs)?;

    // Concurrent phase: every client rereads the hot set repeatedly.
    let batches = config.batches_per_client;
    let (conn, refs) = (&conn, &refs);
    let elapsed = run_wave(config.clients, || {
        Ok(move || (0..batches).try_for_each(|_| read_hot_keys(conn, refs)))
    })?;

    let registry = Registry::new();
    executor.register_metrics(&registry);
    if let Some(fetcher) = &fetcher {
        fetcher.stats().register_metrics(&registry);
    }
    let executor_stats = executor.stats();
    let fetcher_stats = fetcher.as_ref().map(|fetcher| fetcher.stats());
    let stat = |f: fn(&brmi_transport::fetcher::FetcherStats) -> u64| {
        fetcher_stats.as_ref().map_or(0, |stats| f(stats))
    };
    Ok(FetcherStressReport {
        config: config.clone(),
        client_read_calls: ((1 + config.clients * config.batches_per_client) * config.hot_keys)
            as u64,
        origin_executed_calls: executor_stats.calls_replayed,
        origin_read_calls: executor_stats.read_calls_replayed,
        lookups: stat(|s| s.lookups()),
        hits: stat(|s| s.hits()),
        coalesced: stat(|s| s.coalesced_reads()),
        misses: stat(|s| s.misses()),
        probe_batches: stat(|s| s.probe_batches()),
        metrics: registry.snapshot().deterministic_only(),
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_reads_collapse_to_one_origin_execution_per_key() {
        let report = run_fetcher_stress(&FetcherStressConfig::cached(4, 3, 8)).unwrap();
        // The warm batch probed each key once; every later read hit.
        assert_eq!(report.origin_executed_calls, 8);
        assert_eq!(report.origin_read_calls, 8);
        assert_eq!(report.probe_batches, 1);
        assert_eq!(report.misses, 8);
        assert_eq!(report.client_read_calls, (1 + 4 * 3) * 8);
        assert_eq!(report.hits, (4 * 3 * 8) as u64);
        assert_eq!(report.coalesced, 0, "warm phase left nothing in flight");
        assert!((report.absorbed_ratio() - 96.0 / 104.0).abs() < 1e-12);
    }

    #[test]
    fn passthrough_executes_every_client_read() {
        let report = run_fetcher_stress(&FetcherStressConfig::passthrough(2, 2, 4)).unwrap();
        assert_eq!(report.origin_executed_calls, (1 + 2 * 2) * 4);
        assert_eq!(report.lookups, 0, "no fetcher in the path");
        assert_eq!(report.absorbed_ratio(), 0.0);
    }

    #[test]
    fn reduction_is_exact_and_reproducible() {
        let cached = run_fetcher_stress(&FetcherStressConfig::cached(8, 4, 16)).unwrap();
        let passthrough = run_fetcher_stress(&FetcherStressConfig::passthrough(8, 4, 16)).unwrap();
        // 16 executions vs (1 + 32) × 16: the fetched side is O(keys).
        assert_eq!(cached.origin_executed_calls, 16);
        assert_eq!(passthrough.origin_executed_calls, 33 * 16);
        assert_eq!(cached.execution_reduction(&passthrough), 33.0);
        // Deterministic counters: a rerun reports identical numbers.
        let again = run_fetcher_stress(&FetcherStressConfig::cached(8, 4, 16)).unwrap();
        assert_eq!(again.origin_executed_calls, cached.origin_executed_calls);
        assert_eq!(again.hits, cached.hits);
        assert_eq!(again.misses, cached.misses);
        assert_eq!(again.probe_batches, cached.probe_batches);
    }
}
