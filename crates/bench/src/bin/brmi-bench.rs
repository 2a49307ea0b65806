//! `brmi-bench <sweep> [--json PATH] [--check PATH] [--metrics-json]` —
//! runs one sweep of [`brmi_bench::sweeps`], e.g.
//! `cargo run --release -p brmi-bench -- all_figures --check BENCH_all_figures.json`.
//!
//! `--json PATH` writes the sweep's series, `--check PATH` diffs them
//! against a committed baseline (see [`brmi_bench::baseline`]), and
//! `--metrics-json` prints the registry snapshot of its last point.

use std::process::ExitCode;

use brmi_bench::baseline::run_cli;
use brmi_bench::sweeps::{find, SWEEPS};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(sweep) = args.next().as_deref().and_then(find) else {
        let names: Vec<&str> = SWEEPS.iter().map(|sweep| sweep.name).collect();
        eprintln!(
            "usage: brmi-bench <sweep> [--json PATH] [--check PATH] [--metrics-json]\n\
             sweeps: {}",
            names.join(", ")
        );
        return ExitCode::FAILURE;
    };
    let (flags, args): (Vec<String>, Vec<String>) = args.partition(|arg| arg == "--metrics-json");
    if !sweep.baseline && !args.is_empty() {
        eprintln!("{} has no baseline to write or check", sweep.name);
        return ExitCode::FAILURE;
    }
    let run = (sweep.run)();
    if !flags.is_empty() {
        let Some(metrics) = &run.metrics else {
            eprintln!("{} keeps no metrics snapshot", sweep.name);
            return ExitCode::FAILURE;
        };
        println!("{}", metrics.to_json());
    }
    run_cli(&run.tables, &args)
}
