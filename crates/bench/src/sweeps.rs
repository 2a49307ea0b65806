//! The sweeps of the `brmi-bench` binary —
//! `cargo run --release -p brmi-bench -- <sweep> [--json PATH] [--check PATH] [--metrics-json]`.
//!
//! There is one sweep per committed `BENCH_<name>.json` baseline at the
//! repo root, named by the file's stem, plus `model_vs_measured`. A sweep
//! prints its figures, and next to them the machine-dependent wall-clock
//! figures that no baseline checks, then hands back the deterministic
//! series for `--json`/`--check` (see [`crate::baseline`]) and, where the
//! workload keeps one, the unified registry snapshot of its last point
//! for `--metrics-json` (deterministic fields only).

use brmi_apps::fileserver::{
    brmi_fetch, brmi_listing, rmi_fetch, rmi_listing, DirectorySkeleton, DirectoryStub,
    InMemoryDirectory,
};
use brmi_apps::list::{
    brmi_nth_value, brmi_nth_value_unbatched, rmi_nth_value, ListNode, RemoteListSkeleton,
    RemoteListStub,
};
use brmi_apps::noop::{brmi_noops, rmi_noops, NoopServer, NoopSkeleton, NoopStub};
use brmi_apps::testkit::AppRig;
use brmi_obs::MetricsSnapshot;
use brmi_transport::NetworkProfile;
use brmi_wire::RemoteError;

use crate::baseline::SeriesTable;
use crate::model::{counts, predicted_ms_from_stats, TrafficCounts};
use crate::{Figure, MultiFigure};

/// What one sweep produced.
#[derive(Debug)]
pub struct SweepRun {
    /// The series its baseline pins (empty for a sweep without one).
    pub tables: Vec<SeriesTable>,
    /// The registry snapshot `--metrics-json` prints, for the sweeps
    /// whose workload keeps one.
    pub metrics: Option<MetricsSnapshot>,
}

/// One named sweep of the binary.
#[derive(Debug)]
pub struct Sweep {
    /// The name on the command line: the stem of its baseline file.
    pub name: &'static str,
    /// Whether `BENCH_<name>.json` at the repo root pins its series.
    pub baseline: bool,
    /// Runs the sweep, printing as it goes.
    pub run: fn() -> SweepRun,
}

/// Every sweep, in the order CI runs them. The socket sweeps need the
/// epoll reactor and exist on Linux only.
pub const SWEEPS: &[Sweep] = &[
    sweep("all_figures", all_figures),
    sweep("ablations", ablations),
    sweep("extensions", extensions),
    #[cfg(target_os = "linux")]
    sweep("reactor", reactor),
    #[cfg(target_os = "linux")]
    sweep("relay", relay),
    #[cfg(target_os = "linux")]
    sweep("mux", mux),
    sweep("fetcher", fetcher),
    #[cfg(target_os = "linux")]
    sweep("retry", retry),
    sweep("durable", durable),
    sweep("obs", obs),
    #[cfg(target_os = "linux")]
    sweep("overload", overload),
    Sweep {
        name: "model_vs_measured",
        baseline: false,
        run: model_vs_measured,
    },
];

const fn sweep(name: &'static str, run: fn() -> SweepRun) -> Sweep {
    Sweep {
        name,
        baseline: true,
        run,
    }
}

/// The sweep called `name`.
pub fn find(name: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|sweep| sweep.name == name)
}

impl SweepRun {
    /// A run whose baseline pins `figures`.
    fn of<'a, T: 'a>(figures: impl IntoIterator<Item = &'a T>) -> SweepRun
    where
        SeriesTable: From<&'a T>,
    {
        let tables = figures.into_iter().map(SeriesTable::from).collect();
        SweepRun {
            tables,
            metrics: None,
        }
    }

    fn with_metrics(self, metrics: Option<MetricsSnapshot>) -> SweepRun {
        SweepRun { metrics, ..self }
    }
}

fn all_figures() -> SweepRun {
    println!("BRMI evaluation — all paper figures (simulated network, virtual time)\n");
    let figures = crate::figures::all_paper_figures();
    figures.iter().for_each(Figure::print);
    SweepRun::of(&figures)
}

/// The design-choice ablations, each with its two columns renamed:
///
/// * A: identity preservation on/off (column "RMI" = exporting executor);
/// * B: cursor vs two-batch listing (column "RMI" = two-batch variant);
/// * C: exception-policy overhead (column "RMI" = 16-rule custom policy);
/// * D: varint vs fixed-width codec (column "RMI" = fixed-width).
fn ablations() -> SweepRun {
    println!("BRMI ablations (columns renamed per variant; see header comments)\n");
    let figures = crate::figures::all_ablation_figures();
    figures.iter().for_each(Figure::print);
    SweepRun::of(&figures)
}

fn extensions() -> SweepRun {
    println!("BRMI extension experiments (comparators the paper lacked)\n");
    let figures = crate::extensions::all_extension_figures();
    figures.iter().for_each(MultiFigure::print);
    SweepRun::of(&figures)
}

#[cfg(target_os = "linux")]
fn reactor() -> SweepRun {
    println!("BRMI reactor TCP stress sweep (real sockets, epoll reactor server)\n");
    let (figure, reports) = crate::stress::reactor_sweep_with(&crate::stress::CLIENT_SWEEP);
    figure.print();
    crate::stress::print_measured_throughput(&reports);
    SweepRun::of([&figure]).with_metrics(reports.last().map(|report| report.metrics.clone()))
}

#[cfg(target_os = "linux")]
fn relay() -> SweepRun {
    println!("BRMI multi-tier relay sweep (client → edge → origin, real sockets)\n");
    let (figure, reports) = crate::relay::relay_sweep_with(&crate::relay::RELAY_CLIENT_SWEEP);
    figure.print();
    crate::relay::print_measured_reduction(&reports);
    SweepRun::of([&figure])
}

#[cfg(target_os = "linux")]
fn mux() -> SweepRun {
    println!("BRMI mux client sweep (N callers over one socket vs N pooled sockets)\n");
    let (figure, reports) = crate::mux::mux_sweep_with(&crate::mux::MUX_CALLER_SWEEP);
    figure.print();
    crate::mux::print_measured_economics(&reports);
    SweepRun::of([&figure])
}

fn fetcher() -> SweepRun {
    println!("BRMI keyed read-cache sweep (clients → BatchFetcher → origin, in-process)\n");
    let (figure, points) =
        crate::fetcher::fetcher_sweep_with(&crate::fetcher::FETCHER_CLIENT_SWEEP);
    figure.print();
    crate::fetcher::print_measured_reduction(&points);
    SweepRun::of([&figure]).with_metrics(points.last().map(|point| point.cached.metrics.clone()))
}

#[cfg(target_os = "linux")]
fn retry() -> SweepRun {
    println!("BRMI keyed-retry sweep (lossy links, exactly-once visible semantics)\n");
    let (figure, reports) = crate::retry::retry_sweep_with(&crate::retry::RETRY_DROP_SWEEP);
    figure.print();
    crate::retry::print_measured_goodput(&reports);
    SweepRun::of([&figure]).with_metrics(reports.last().map(|report| report.metrics.clone()))
}

fn durable() -> SweepRun {
    println!("BRMI durable-origin sweep (append path + crash recovery)\n");
    let (figures, reports) =
        crate::durable::durable_sweep_with(&crate::durable::DURABLE_BATCH_SWEEP);
    figures.iter().for_each(MultiFigure::print);
    crate::durable::print_measured_overhead(&reports);
    SweepRun::of(&figures).with_metrics(reports.last().map(|report| report.metrics.clone()))
}

fn obs() -> SweepRun {
    println!("BRMI observability sweep (traced client → relay → simulated origin)\n");
    let (figure, points) = crate::obs::obs_sweep_with(&crate::obs::OBS_SWEEP);
    figure.print();
    crate::obs::assert_overhead_within_budget(&points);
    println!(
        "\noverhead guard: ≤{} envelope bytes per flush everywhere, ≤{:.1}% of bare wire \
         bytes from batch {} up",
        crate::obs::MAX_ENVELOPE_BYTES_PER_FLUSH,
        crate::obs::MAX_ENVELOPE_OVERHEAD_PCT,
        crate::obs::OVERHEAD_PCT_MIN_BATCH
    );
    if let Some(point) = points.last() {
        println!("\nsample waterfall (batch = {}):", point.batch_size);
        println!("{}", point.waterfall);
    }
    SweepRun::of([&figure]).with_metrics(
        points
            .last()
            .map(|point| point.metrics.deterministic_only()),
    )
}

#[cfg(target_os = "linux")]
fn overload() -> SweepRun {
    println!("BRMI overload sweep (bounded accept, queue shedding, adaptive window)\n");
    let (admission, reports) =
        crate::overload::admission_sweep_with(&crate::overload::OFFERED_SWEEP);
    admission.print();
    crate::overload::print_measured_admission(&reports);
    let (saturation, _) =
        crate::overload::saturation_sweep_with(&crate::overload::LOAD_SWEEP_PER_MILLE);
    saturation.print();
    let adaptive = crate::overload::adaptive_figure();
    adaptive.print();
    SweepRun::of([&admission, &saturation, &adaptive])
}

/// Prints the analytic model's predictions next to the simulator's
/// measurements for every construct at five calls, hops or files (ten for
/// the listing). The count columns must agree exactly and the time columns
/// to within clock rounding; `tests/model_check.rs` enforces both.
fn model_vs_measured() -> SweepRun {
    fn row<T>(
        name: &str,
        rig: &AppRig,
        expected: TrafficCounts,
        work: impl FnOnce() -> Result<T, RemoteError>,
    ) {
        let loopback_before = rig.server.loopback_calls();
        let simulated = rig.measure_ms(|| {
            work().expect(name);
        });
        let loopback = rig.server.loopback_calls() - loopback_before;
        let predicted = predicted_ms_from_stats(rig.profile(), &rig.stats, loopback);
        println!(
            "{name:<28} {:>5}/{:<5} {:>5}/{:<5} {predicted:>10.4} {simulated:>10.4}",
            expected.round_trips,
            rig.stats.requests(),
            expected.remote_refs,
            rig.stats.remote_refs(),
        );
    }

    let profile = NetworkProfile::lan_1gbps();
    println!("Analytic model vs simulator (LAN profile)\n");
    println!(
        "{:<28} {:>11} {:>11} {:>10} {:>10}",
        "scenario", "trips p/m", "refs p/m", "model ms", "sim ms"
    );

    let rig = AppRig::simulated(&profile, NoopSkeleton::remote_arc(NoopServer::new()));
    let stub = NoopStub::new(rig.root.clone());
    row("rmi noop x5", &rig, counts::rmi_noop(5), || {
        rmi_noops(&stub, 5)
    });
    row("brmi noop x5", &rig, counts::brmi_noop(5), || {
        brmi_noops(&rig.conn, &rig.root, 5)
    });

    let values: Vec<i32> = (0..8).collect();
    let list = RemoteListSkeleton::remote_arc(ListNode::chain(&values));
    let rig = AppRig::simulated(&profile, list);
    let stub = RemoteListStub::new(rig.root.clone());
    row("rmi list x5", &rig, counts::rmi_list(5), || {
        rmi_nth_value(&stub, 5)
    });
    row("brmi list x5", &rig, counts::brmi_list(5), || {
        brmi_nth_value(&rig.conn, &rig.root, 5)
    });
    row(
        "brmi list x5 (size-1)",
        &rig,
        counts::brmi_list_unbatched(5),
        || brmi_nth_value_unbatched(&rig.conn, &rig.root, 5),
    );

    let dir = InMemoryDirectory::new();
    dir.populate(10, 1024);
    let rig = AppRig::simulated(&profile, DirectorySkeleton::remote_arc(dir));
    let stub = DirectoryStub::new(rig.root.clone());
    let names: Vec<String> = (0..5).map(|i| format!("file{i}")).collect();
    row("rmi fetch x5", &rig, counts::rmi_fetch(5), || {
        rmi_fetch(&stub, &names)
    });
    row("brmi fetch x5", &rig, counts::brmi_fetch(5), || {
        brmi_fetch(&rig.conn, &rig.root, &names)
    });
    row(
        "rmi listing (10 files)",
        &rig,
        counts::rmi_listing(10),
        || rmi_listing(&stub),
    );
    row(
        "brmi listing (10 files)",
        &rig,
        counts::brmi_listing(10),
        || brmi_listing(&rig.conn, &rig.root),
    );

    println!("\n(p/m = predicted/measured; times agree to clock rounding)");
    SweepRun::of::<Figure>([])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline without a sweep is never checked, and a sweep without a
    /// baseline checks nothing: the two sets must be equal.
    #[test]
    #[cfg(target_os = "linux")]
    fn every_baseline_has_a_sweep_and_every_sweep_a_baseline() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<String> = std::fs::read_dir(&root)
            .expect("repo root is readable")
            .filter_map(|entry| {
                let name = entry.expect("directory entry").file_name();
                let stem = name
                    .to_str()?
                    .strip_prefix("BENCH_")?
                    .strip_suffix(".json")?;
                Some(stem.to_owned())
            })
            .collect();
        files.sort();
        let mut sweeps: Vec<String> = SWEEPS
            .iter()
            .filter(|sweep| sweep.baseline)
            .map(|sweep| sweep.name.to_owned())
            .collect();
        sweeps.sort();
        assert_eq!(sweeps, files);
    }
}
