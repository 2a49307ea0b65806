//! The BRMI benchmark: four closed-loop workloads over real loopback TCP
//! on the production pair (`MuxClient` → `ReactorServer`), end-to-end
//! metrics with bounds, a per-layer budget from a traced run, and a
//! comparison of two results files. See `README.md` beside this package.
//!
//! ```text
//! brmi-benchmark run     [--seed N]… [--seconds S] [--out FILE] [--smoke]
//! brmi-benchmark trace   [--seed N] [--seconds S] [--smoke]
//! brmi-benchmark compare <a.json> <b.json> [--manifest BENCHMARK.json]
//! brmi-benchmark bench   --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `bench` is one workload in one process and the entry point the
//! `command` of `BENCHMARK.json` names; `run` and `trace` start it once
//! per workload, so peak memory and set-up time are each workload's own.

mod compare;
mod env;
mod gen;
mod json;
mod metrics;
mod rig;
mod run;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use json::Json;
use metrics::{MetricDef, Probes, END_TO_END, FAILED_SHARE, PER_LAYER};
use rig::{Build, Workload};
use stats::Summary;

/// Set-ups per untraced invocation: `setup_s` is their median, so one
/// slow bind or page-cache miss does not decide it.
const SETUPS: usize = 5;
/// Measured seconds per workload of `run`, and total per workload of
/// `trace`, when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 0.5;
/// Shares of a traced invocation's `--seconds`: an untraced reference
/// window (for the tracing overhead), the traced window, and on
/// `durable_keyed` the in-memory twin.
const TRACE_SPLIT: [f64; 3] = [0.25, 0.6, 0.1];

/// `benchmark/out`: under the current directory when it is the repository
/// root (how the driver runs the command), else beside this package.
fn out_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// A directory under `benchmark/out`, removed on drop — also when a
/// self-check fails or a panic unwinds.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `--key value` pairs after the subcommand; bare words are positional.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) if flags.contains(&name) => parsed.flags.push(name.to_owned()),
                Some(name) => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.options.push((name.to_owned(), value.clone()));
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.options
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.all(name).last() {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
            None => Ok(default),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the last thing on standard output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[MetricDef],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics = table
        .iter()
        .map(|&(name, unit, _)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name.to_owned(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

struct BenchArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
}

fn window(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.0))
}

/// One workload, untraced: one measured window and every self-check, then
/// `SETUPS - 1` further set-ups with no window. The rehearsals come last
/// because a process's first second can run several times faster than
/// its steady state here (the host polls briefly for a halted vCPU);
/// the slice median drops that transient from the window, and by the
/// rehearsals it has passed, so `setup_s` reads the steady state too.
fn bench_untraced(args: &BenchArgs) -> Result<(), String> {
    let workload = args.workload;
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let mut journal_fs = String::new();
    let mut first_problem = None;
    let mut stale_reads = 0.0;
    let mut measured = None;
    for round in 0..args.setups {
        let scratch = Scratch::new(workload.name())?;
        journal_fs = env::fs_type(&scratch.0);
        let outcome = run::run(
            Build {
                workload,
                seed: args.seed,
                traced: false,
                journal: true,
                scratch: &scratch.0,
            },
            window(if round == 0 { args.seconds } else { 0.0 }),
        )?;
        setup_s.push(outcome.setup_s);
        attempted += outcome.attempted;
        failed += outcome.failed;
        match &outcome.finish {
            Ok(finish) => stale_reads += finish.stale_reads,
            Err(problem) => problems.push(problem.clone()),
        }
        first_problem = first_problem.or(outcome.first_problem);
        measured.get_or_insert(outcome.series);
    }
    let series = measured.ok_or("no set-up ran")?;
    let samples: BTreeMap<&str, Vec<f64>> = BTreeMap::from([
        ("calls_per_s", series.calls_per_s.clone()),
        ("flush_p50_us", series.flush_p50_us.clone()),
        ("flush_p99_us", series.flush_p99_us.clone()),
        ("cpu_us_per_call", series.cpu_us_per_call.clone()),
        ("peak_rss_mb", vec![env::peak_rss_mib()]),
        ("setup_s", setup_s),
    ]);

    println!(
        "{} seed {}: {} closed-loop callers over loopback TCP, {} s window in {} slices, journal on {}, {} cpus",
        workload.name(),
        args.seed,
        workload.callers(),
        args.seconds,
        run::SLICES,
        journal_fs,
        env::nproc(),
    );
    let mut values = BTreeMap::new();
    for &(name, unit, _) in END_TO_END {
        let summary = Summary::of(&samples[name]);
        println!(
            "  {name:<16} {:>14.4} {unit:<4} q1 {:.4} q3 {:.4} spread {:.2}% n={}",
            summary.median,
            summary.q1,
            summary.q3,
            summary.spread() * 100.0,
            summary.n
        );
        values.insert(name, summary.median);
    }
    let share = if attempted > 0 {
        failed as f64 / attempted as f64
    } else {
        0.0
    };
    println!("  {FAILED_SHARE:<16} {share:>14.6} ratio ({failed} of {attempted} operations)");
    println!(
        "  latency samples per slice: least {}; flush_p999_us {:.1} (diagnostic)",
        series.samples.iter().min().copied().unwrap_or(0),
        series.flush_p999_us
    );
    if stale_reads > 0.0 {
        println!(
            "  hot reads below an earlier read (stale cache entry, diagnostic): {stale_reads}"
        );
    }
    if let Some(problem) = &first_problem {
        println!("  first failed operation: {problem}");
    }
    for problem in &problems {
        println!("  SELF-CHECK FAILED: {problem}");
    }
    let detail = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("correct", Json::Bool(problems.is_empty())),
        ("journal_fs", Json::Str(journal_fs)),
        (
            "samples",
            Json::Obj(
                samples
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::nums(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("detail {}", detail.render());
    println!(
        "{}",
        result_line(problems.is_empty(), attempted, failed, END_TO_END, &values)
    );
    Ok(())
}

/// One workload, traced: the traced window whose spans and counters give
/// the per-layer numbers, an untraced reference window for the tracing
/// overhead, the in-memory twin on `durable_keyed`, and the direct probes.
fn bench_traced(args: &BenchArgs) -> Result<(), String> {
    let workload = args.workload;
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let mut phase = |name: &str, traced, journal, seconds: f64| -> Result<run::Outcome, String> {
        let scratch = Scratch::new(workload.name())?;
        let build = Build {
            workload,
            seed: args.seed,
            traced,
            journal,
            scratch: &scratch.0,
        };
        let outcome = run::run(build, window(seconds))?;
        attempted += outcome.attempted;
        failed += outcome.failed;
        if let Err(problem) = &outcome.finish {
            problems.push(format!("{name}: {problem}"));
        }
        if let Some(problem) = &outcome.first_problem {
            println!("  first failed operation ({name}): {problem}");
        }
        Ok(outcome)
    };
    // Traced first: its longer lead-in absorbs the process's fast first
    // second, so the reference window after it starts in the steady state.
    let traced = phase("traced", true, true, args.seconds * TRACE_SPLIT[1])?;
    let reference = phase("reference", false, true, args.seconds * TRACE_SPLIT[0])?;
    let twin_handle_ns = match workload {
        Workload::DurableKeyed => Some(
            phase("twin", true, false, args.seconds * TRACE_SPLIT[2])?
                .totals
                .mean_ns(trace::SpanName::OriginHandle),
        ),
        _ => None,
    };
    let log_append_commit = match workload {
        Workload::DurableKeyed => {
            let scratch = Scratch::new("log-probe")?;
            let appends = traced
                .moved
                .get("origin.durable_appends")
                .copied()
                .unwrap_or(0.0);
            let bytes = traced
                .moved
                .get("origin.durable_bytes")
                .copied()
                .unwrap_or(0.0);
            let payload = if appends > 0.0 {
                bytes / appends
            } else {
                256.0
            };
            Some(rig::log_append_commit(&scratch.0, payload as usize)?)
        }
        _ => None,
    };
    let probes = Probes {
        reference_calls_per_s: reference.series.calls_per_s,
        twin_handle_ns,
        table_lookup_ns: rig::table_lookup_ns(),
        log_append_commit,
        span_cost_ns: trace::span_cost_ns(),
        calibration_ns: env::calibration_ns(),
    };
    let layers = metrics::per_layer(&traced, &probes);

    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.jsonl", workload.name()));
    trace::write_jsonl(&path, &traced.spans)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    println!(
        "{} seed {} traced: {} operations in a {} s window, {} spans kept in {}",
        workload.name(),
        args.seed,
        traced.series.ops,
        args.seconds * TRACE_SPLIT[1],
        traced.spans.len(),
        path.display()
    );
    for &(name, unit, _) in PER_LAYER {
        println!("  {name:<34} {:>16.4} {unit}", layers[name]);
    }
    for problem in &problems {
        println!("  SELF-CHECK FAILED: {problem}");
    }
    let detail = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("correct", Json::Bool(problems.is_empty())),
        ("failed", Json::Num(failed as f64)),
        (
            "layers",
            Json::Obj(
                layers
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    println!("detail {}", detail.render());
    println!(
        "{}",
        result_line(problems.is_empty(), attempted, failed, PER_LAYER, &layers)
    );
    Ok(())
}

fn bench(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &["smoke"])?;
    let name = args
        .all("workload")
        .last()
        .copied()
        .ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let smoke = args.flag("smoke");
    let bench = BenchArgs {
        workload,
        seed: args.number("seed", 1)?,
        seconds: args.number(
            "seconds",
            if smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            },
        )?,
        setups: if smoke { 1 } else { SETUPS },
    };
    if !(bench.seconds > 0.0 && bench.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", bench.seconds));
    }
    match args.number("trace", 0u8)? {
        0 => bench_untraced(&bench),
        1 => bench_traced(&bench),
        other => Err(format!("--trace {other}: expected 0 or 1")),
    }
}

/// Runs `bench` for one workload in a child process, echoing what it
/// prints, and returns its `detail` object.
fn child(
    workload: Workload,
    seed: u64,
    passthrough: &[String],
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = std::process::Command::new(exe)
        .args([
            "bench",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(passthrough)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(text) => detail = Some(Json::parse(text)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            output.status
        ));
    }
    detail.ok_or_else(|| format!("{} child printed no detail", workload.name()))
}

fn passthrough(args: &Args) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(seconds) = args.all("seconds").last() {
        out.extend(["--seconds".to_owned(), (*seconds).to_owned()]);
    }
    if args.flag("smoke") {
        out.push("--smoke".to_owned());
    }
    out
}

fn healthy(detail: &Json) -> bool {
    detail.get("correct") == Some(&Json::Bool(true))
        && detail.get("failed").and_then(Json::as_f64) == Some(0.0)
}

fn run_all(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &["smoke"])?;
    let mut seeds: Vec<u64> = Vec::new();
    for text in args.all("seed") {
        seeds.push(
            text.parse()
                .map_err(|_| format!("--seed: cannot read {text:?}"))?,
        );
    }
    if seeds.is_empty() {
        seeds.push(1);
    }
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut runs = Vec::new();
    let mut all_healthy = true;
    for &seed in &seeds {
        for workload in Workload::ALL {
            let detail = child(workload, seed, &passthrough(&args), false)?;
            all_healthy &= healthy(&detail);
            runs.push(detail);
        }
    }
    let journal_fs = runs
        .iter()
        .find_map(|r| r.get("journal_fs").and_then(Json::as_str))
        .unwrap_or("unknown")
        .to_owned();
    let results = Json::obj([
        (
            "env",
            Json::obj([
                (
                    "seeds",
                    Json::nums(&seeds.iter().map(|&s| s as f64).collect::<Vec<_>>()),
                ),
                (
                    "git_commit",
                    Json::Str(env::command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("nproc", Json::Num(env::nproc() as f64)),
                ("kernel", Json::Str(env::kernel())),
                (
                    "rustc",
                    Json::Str(env::command_line("rustc", &["--version"])),
                ),
                ("journal_fs", Json::Str(journal_fs)),
                ("network", Json::str("loopback")),
                ("env.calibration_ns", Json::Num(env::calibration_ns())),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let path = args
        .all("out")
        .last()
        .map_or_else(|| out.join("results.json"), PathBuf::from);
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_healthy)
}

fn trace_all(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &["smoke"])?;
    let seed = args.number("seed", 1)?;
    let mut columns = Vec::new();
    let mut all_healthy = true;
    for workload in Workload::ALL {
        let detail = child(workload, seed, &passthrough(&args), true)?;
        all_healthy &= healthy(&detail);
        columns.push(detail);
    }
    println!("\nper-layer metrics, seed {seed}");
    print!("{:<34} {:<5}", "metric", "unit");
    for workload in Workload::ALL {
        print!(" {:>14}", workload.name());
    }
    println!();
    for &(name, unit, _) in PER_LAYER {
        print!("{name:<34} {unit:<5}");
        for column in &columns {
            let value = column
                .get("layers")
                .and_then(|l| l.get(name))
                .and_then(Json::as_f64);
            print!(" {:>14.4}", value.unwrap_or(f64::NAN));
        }
        println!();
    }
    let path = out_dir().join("layers.json");
    std::fs::write(&path, Json::Arr(columns).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("per-layer numbers written to {}", path.display());
    Ok(all_healthy)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &[])?;
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("compare needs two results files".to_owned());
    };
    let read = |path: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let manifest = match args.all("manifest").last() {
        Some(path) => (*path).to_owned(),
        None if Path::new("BENCHMARK.json").is_file() => "BENCHMARK.json".to_owned(),
        None => concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_owned(),
    };
    let bounds = compare::bounds_of(&read(&manifest)?)?;
    let rows = compare::compare(
        &bounds,
        &compare::pool(&read(a_path)?)?,
        &compare::pool(&read(b_path)?)?,
    );
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound"
    );
    for row in &rows {
        let change = if row.a.median == 0.0 {
            0.0
        } else {
            (row.b.median - row.a.median) / row.a.median
        };
        println!(
            "{:<14} {:<16} {:>14.4} {:>14.4} {:>+7.2}% {:>5.0}%  {}",
            row.workload,
            row.metric,
            row.a.median,
            row.b.median,
            change * 100.0,
            row.bound * 100.0,
            row.verdict.as_str()
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} pairings: {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    let outcome = match command {
        "bench" => bench(rest).map(|()| true),
        "run" => run_all(rest),
        "trace" => trace_all(rest),
        "compare" => compare_files(rest),
        _ => Err(
            "usage: brmi-benchmark run|trace|compare|bench … (see benchmark/README.md)".to_owned(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("brmi-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
