//! Shape and determinism checks for the reactor stress sweep (kept to a
//! tiny client sweep so the tier-1 test run stays fast; the full
//! [`brmi_bench::stress::CLIENT_SWEEP`] runs in `brmi-bench reactor` / CI
//! smoke).

#![cfg(target_os = "linux")]

use brmi_bench::baseline::{render_json, SeriesTable};
use brmi_bench::relay::relay_sweep_with;
use brmi_bench::stress::reactor_sweep_with;

#[test]
fn sweep_series_are_complete_and_consistent() {
    let clients = [1u32, 4];
    let (figure, reports) = reactor_sweep_with(&clients);
    assert_eq!(figure.x, clients);
    assert_eq!(figure.series.len(), 4);
    for (name, values) in &figure.series {
        assert_eq!(values.len(), clients.len(), "series {name}");
    }
    assert_eq!(reports.len(), clients.len());

    // Counts scale exactly with the client population: every client does
    // one lookup plus one round trip per batch, and every call executes.
    let round_trips = figure.series_named("RoundTrips");
    let calls = figure.series_named("Calls");
    for (i, &n) in clients.iter().enumerate() {
        let n = f64::from(n);
        let batches = reports[i].config.batches_per_client as f64;
        let per_batch = reports[i].config.calls_per_batch as f64;
        assert_eq!(round_trips[i], n * (1.0 + batches));
        assert_eq!(calls[i], n * batches * per_batch);
    }

    // Wire bytes scale linearly in the client count (identical per-client
    // traffic), which is what makes the committed baseline machine-stable.
    let sent = figure.series_named("SentBytes");
    let received = figure.series_named("RecvBytes");
    assert_eq!(sent[1], 4.0 * sent[0]);
    assert_eq!(received[1], 4.0 * received[0]);
}

#[test]
fn sweep_renders_to_stable_json() {
    let clients = [2u32];
    let (first, _) = reactor_sweep_with(&clients);
    let (second, _) = reactor_sweep_with(&clients);
    let a = render_json(&[SeriesTable::from(&first)]);
    let b = render_json(&[SeriesTable::from(&second)]);
    assert_eq!(a, b, "stress series must be bit-for-bit reproducible");
}

#[test]
fn relay_sweep_series_are_exact_and_coalescing_pays() {
    let clients = [1u32, 4];
    let (figure, reports) = relay_sweep_with(&clients);
    assert_eq!(figure.x, clients);
    assert_eq!(figure.series.len(), 6);
    for (name, values) in &figure.series {
        assert_eq!(values.len(), clients.len(), "series {name}");
    }

    let origin = figure.series_named("OriginRoundTrips");
    let direct = figure.series_named("DirectOriginRoundTrips");
    let flushes = figure.series_named("UpstreamFlushes");
    let calls = figure.series_named("Calls");
    for (i, &n) in clients.iter().enumerate() {
        let n = f64::from(n);
        let batches = reports[i].config.batches_per_client as f64;
        let per_batch = reports[i].config.calls_per_batch as f64;
        // Full-wave coalescing: the origin sees the forwarded lookups plus
        // one super-batch per wave, against one per batch directly.
        assert_eq!(origin[i], n + batches);
        assert_eq!(direct[i], n + n * batches);
        assert_eq!(flushes[i], batches);
        assert_eq!(calls[i], n * batches * per_batch);
    }
    // At 4 clients the relay already cuts origin round trips multiple-fold.
    assert!(direct[1] / origin[1] > 3.0);
}

#[test]
fn relay_sweep_renders_to_stable_json() {
    let clients = [3u32];
    let (first, _) = relay_sweep_with(&clients);
    let (second, _) = relay_sweep_with(&clients);
    let a = render_json(&[SeriesTable::from(&first)]);
    let b = render_json(&[SeriesTable::from(&second)]);
    assert_eq!(a, b, "relay series must be bit-for-bit reproducible");
}
