//! Drives the built binary the way `check.sh` and the driver do: short
//! windows, every workload, every self-check.

use std::process::Command;

fn benchmark(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_brmi-benchmark"))
        .args(args)
        .output()
        .expect("start the benchmark binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

const WORKLOADS: [&str; 4] = ["rmi_single", "batch_wide", "durable_keyed", "edge_mix"];

#[test]
fn smoke_run_of_all_four_workloads_passes_its_self_checks() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let (ok, stdout) = benchmark(&["run", "--smoke", "--out", out.to_str().expect("utf-8 path")]);
    assert!(ok, "smoke run failed:\n{stdout}");
    assert!(!stdout.contains("SELF-CHECK FAILED"), "{stdout}");
    for workload in WORKLOADS {
        assert!(
            stdout.contains(&format!("{workload} seed 1:")),
            "{workload} did not report:\n{stdout}"
        );
    }
    for metric in [
        "calls_per_s",
        "flush_p50_us",
        "flush_p99_us",
        "cpu_us_per_call",
        "peak_rss_mb",
        "setup_s",
        "failed_share",
    ] {
        assert_eq!(
            stdout.matches(&format!("  {metric} ")).count(),
            4,
            "{metric} on every workload:\n{stdout}"
        );
    }
    // A results file compares clean against itself.
    let path = out.to_str().expect("utf-8 path");
    let (ok, table) = benchmark(&["compare", path, path]);
    let _ = std::fs::remove_file(&out);
    assert!(ok, "self-comparison regressed:\n{table}");
    assert!(table.contains("0 regressed"), "{table}");
}

#[test]
fn smoke_trace_writes_spans_and_every_layer_metric() {
    let (ok, stdout) = benchmark(&[
        "bench",
        "--workload",
        "edge_mix",
        "--seed",
        "3",
        "--trace",
        "1",
        "--smoke",
    ]);
    assert!(ok, "traced smoke failed:\n{stdout}");
    assert!(!stdout.contains("SELF-CHECK FAILED"), "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    for metric in [
        "relay.batches_per_flush",
        "fetcher.absorbed_ratio",
        "share.transport",
        "bench.trace_overhead_share",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\"")),
            "{metric} missing from {last}"
        );
    }
    assert!(last.contains("\"correct\": true"), "{last}");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["bench", "--workload", "nope"][..],
        &["bench"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let (ok, stdout) = benchmark(args);
        assert!(!ok, "{args:?} must fail");
        assert!(!stdout.contains("\"metrics\""), "{args:?} printed a result");
    }
}
