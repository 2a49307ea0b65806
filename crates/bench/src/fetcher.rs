//! Hot-key read-cache sweep: origin executions with and without a
//! [`BatchFetcher`](brmi_transport::fetcher::BatchFetcher), over a growing
//! client population hammering one small key set.
//!
//! The workload is [`brmi_apps::fetcher`]'s dashboard shape: every client
//! flushes read batches covering the same `HOT_KEYS` accounts. The relay
//! sweep shows round *trips* collapsing; this one shows origin
//! *executions* collapsing — with the fetcher in the path the origin
//! executes each distinct read once (the warm batch), so the fetched
//! series is flat at `HOT_KEYS` while the pass-through series grows
//! linearly with the client count. Every committed series is an exact
//! count from [`ExecutorStats`](brmi::executor::ExecutorStats) or
//! [`FetcherStats`](brmi_transport::fetcher::FetcherStats), so the
//! `BENCH_fetcher.json` baseline diffs bit for bit; wall-clock throughput
//! is printed for humans only.

use brmi_apps::fetcher::{run_fetcher_stress, FetcherStressConfig, FetcherStressReport};

use crate::MultiFigure;

/// Read batches each client flushes at every sweep point.
const BATCHES_PER_CLIENT: usize = 8;
/// Distinct hot accounts — the whole cacheable universe of the workload.
const HOT_KEYS: usize = 16;

/// The default client-count sweep: 1 → 64 concurrent clients.
pub const FETCHER_CLIENT_SWEEP: [u32; 5] = [1, 2, 8, 32, 64];

/// One sweep point: the cached run and its pass-through twin.
pub struct FetcherSweepPoint {
    /// The run with the fetcher in the path.
    pub cached: FetcherStressReport,
    /// The identical client program with no fetcher.
    pub passthrough: FetcherStressReport,
}

/// Runs the hot-key workload once per entry of `clients` — cached and
/// pass-through — and returns the deterministic count series plus the
/// full reports (which include the nondeterministic wall-clock timings).
///
/// # Panics
///
/// Panics when a run fails; the workload is in-process and validates
/// every balance it reads, so a failure means a stale read escaped.
pub fn fetcher_sweep_with(clients: &[u32]) -> (MultiFigure, Vec<FetcherSweepPoint>) {
    let mut client_reads = Vec::with_capacity(clients.len());
    let mut fetched_execs = Vec::with_capacity(clients.len());
    let mut passthrough_execs = Vec::with_capacity(clients.len());
    let mut hits = Vec::with_capacity(clients.len());
    let mut misses = Vec::with_capacity(clients.len());
    let mut probes = Vec::with_capacity(clients.len());
    let mut points = Vec::with_capacity(clients.len());
    for &n in clients {
        let cached = run_fetcher_stress(&FetcherStressConfig::cached(
            n as usize,
            BATCHES_PER_CLIENT,
            HOT_KEYS,
        ))
        .expect("cached fetcher stress run failed");
        let passthrough = run_fetcher_stress(&FetcherStressConfig::passthrough(
            n as usize,
            BATCHES_PER_CLIENT,
            HOT_KEYS,
        ))
        .expect("pass-through fetcher stress run failed");
        client_reads.push(cached.client_read_calls as f64);
        fetched_execs.push(cached.origin_executed_calls as f64);
        passthrough_execs.push(passthrough.origin_executed_calls as f64);
        hits.push(cached.hits as f64);
        misses.push(cached.misses as f64);
        probes.push(cached.probe_batches as f64);
        points.push(FetcherSweepPoint {
            cached,
            passthrough,
        });
    }
    let figure = MultiFigure {
        id: "figF1",
        title: format!(
            "Keyed read cache: {BATCHES_PER_CLIENT} read batches per client over \
             {HOT_KEYS} hot keys, fetched vs pass-through (deterministic count series)"
        ),
        x_label: "concurrent clients",
        x: clients.to_vec(),
        series: vec![
            ("ClientReadCalls", client_reads),
            ("FetchedOriginExecutions", fetched_execs),
            ("PassthroughOriginExecutions", passthrough_execs),
            ("CacheHits", hits),
            ("CacheMisses", misses),
            ("ProbeBatches", probes),
        ],
    };
    (figure, points)
}

/// Prints the per-point execution reduction, absorbed ratio and the
/// wall-clock side of the sweep (the latter is not baseline-checked).
pub fn print_measured_reduction(points: &[FetcherSweepPoint]) {
    println!("origin execution reduction and measured cache absorption:");
    println!(
        "{:>20} {:>14} {:>14} {:>12} {:>12} {:>14}",
        "concurrent clients",
        "direct execs",
        "fetched execs",
        "reduction",
        "absorbed",
        "elapsed ms"
    );
    for point in points {
        println!(
            "{:>20} {:>14} {:>14} {:>11.1}x {:>11.1}% {:>14.2}",
            point.cached.config.clients,
            point.passthrough.origin_executed_calls,
            point.cached.origin_executed_calls,
            point.cached.execution_reduction(&point.passthrough),
            point.cached.absorbed_ratio() * 100.0,
            point.cached.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_series_are_exact_counts() {
        let (figure, points) = fetcher_sweep_with(&[1, 4]);
        // Fetched executions are flat at the hot-key count; pass-through
        // grows with the client population.
        assert_eq!(
            figure.series_named("FetchedOriginExecutions"),
            &[HOT_KEYS as f64, HOT_KEYS as f64]
        );
        let expected_passthrough =
            |clients: usize| ((1 + clients * BATCHES_PER_CLIENT) * HOT_KEYS) as f64;
        assert_eq!(
            figure.series_named("PassthroughOriginExecutions"),
            &[expected_passthrough(1), expected_passthrough(4)]
        );
        assert!(points[1].cached.execution_reduction(&points[1].passthrough) >= 4.0);
    }
}
