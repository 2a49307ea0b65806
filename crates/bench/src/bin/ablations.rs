//! Runs the design-choice ablations (the `ablation_*` figures in
//! `brmi_bench::figures`) —
//! `cargo run -p brmi-bench --bin ablations`.
//!
//! * A: identity preservation on/off (column "RMI" = exporting executor);
//! * B: cursor vs two-batch listing (column "RMI" = two-batch variant);
//! * C: exception-policy overhead (column "RMI" = 16-rule custom policy);
//! * D: varint vs fixed-width codec (column "RMI" = fixed-width).
//!
//! Accepts `--json PATH` / `--check PATH` for the committed
//! `BENCH_ablations.json` baseline; see [`brmi_bench::baseline`].

use std::process::ExitCode;

use brmi_bench::baseline::{run_cli, SeriesTable};

fn main() -> ExitCode {
    println!("BRMI ablations (columns renamed per variant; see header comments)\n");
    let figures = brmi_bench::figures::all_ablation_figures();
    for figure in &figures {
        figure.print();
    }
    let tables: Vec<SeriesTable> = figures.iter().map(SeriesTable::from).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_cli(&tables, &args)
}
