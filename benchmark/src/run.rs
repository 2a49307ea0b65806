//! The closed-loop driver: set-up, a fixed-count warm-up, then a measured
//! window cut into slices. An RMI caller blocks for its reply, so the
//! callers — not an arrival schedule — are the load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use crate::env;
use crate::rig::{Build, Caller, Finish, OpClass, Rig, Tally};
use crate::stats::percentile_sorted;
use crate::trace::{self, Span, Totals};

/// Slices per measured window; each end-to-end metric is the median over
/// them, which holds steadier run to run than one whole-window figure.
pub const SLICES: usize = 10;

/// One caller's samples of one slice.
#[derive(Default)]
struct SliceLog {
    /// Latency of each verified operation, by class (read, write).
    latency_ns: [Vec<u32>; 2],
    /// Remote calls in those operations.
    calls: u64,
}

struct CallerReport {
    caller: Box<dyn Caller>,
    slices: Vec<SliceLog>,
    attempted: u64,
    failed: u64,
    first_problem: Option<String>,
}

/// Per-slice series of one measured window, in slice order.
#[derive(Debug, Clone, Default)]
pub struct Series {
    pub calls_per_s: Vec<f64>,
    pub flush_p50_us: Vec<f64>,
    pub flush_p99_us: Vec<f64>,
    pub cpu_us_per_call: Vec<f64>,
    /// Latency samples behind each slice's percentiles.
    pub samples: Vec<usize>,
    /// Whole-window figures: a diagnostic tail and the two `edge_mix`
    /// classes (zero where a class has no samples).
    pub flush_p999_us: f64,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    /// Verified operations and remote calls that ended inside the window.
    pub ops: u64,
    pub calls: u64,
}

/// Everything one set-up-and-window produced.
pub struct Outcome {
    /// Build start to measured-window start: topology, population,
    /// journal attach, connects, lookups and the fixed-count warm-up.
    pub setup_s: f64,
    pub series: Series,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed operation failed, if any did.
    pub first_problem: Option<String>,
    pub finish: Result<Finish, String>,
    /// Registry counters and gauges at window end, and how far each moved
    /// over the window.
    pub counts: BTreeMap<String, f64>,
    pub moved: BTreeMap<String, f64>,
    /// Traced rigs only.
    pub spans: Vec<Span>,
    pub totals: Totals,
    pub queue_depth_max: f64,
    pub codec_ns_per_call: [f64; 4],
}

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

fn caller_loop(
    mut caller: Box<dyn Caller>,
    warmup_ops: u64,
    gates: &(Barrier, Barrier),
    start: &OnceLock<Instant>,
    window: Duration,
    slice_capacity: usize,
) -> CallerReport {
    let slice = window / SLICES as u32;
    let mut slices: Vec<SliceLog> = (0..SLICES)
        .map(|_| SliceLog {
            latency_ns: [
                Vec::with_capacity(slice_capacity),
                Vec::with_capacity(slice_capacity),
            ],
            calls: 0,
        })
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_problem = None;
    let mut seq = 0u64;
    while seq < warmup_ops {
        if let Some(problem) = caller.op(seq).problem {
            failed += 1;
            first_problem.get_or_insert(problem);
        }
        seq += 1;
    }
    attempted += warmup_ops;
    gates.0.wait();
    gates.1.wait();
    let start = *start
        .get()
        .expect("window start is published before the second gate");
    let end = start + window;
    loop {
        let began = Instant::now();
        if began >= end {
            break;
        }
        let outcome = caller.op(seq);
        seq += 1;
        attempted += 1;
        if let Some(problem) = outcome.problem {
            // A failed or wrong reply is a failed operation, never a
            // latency sample.
            failed += 1;
            first_problem.get_or_insert(problem);
            continue;
        }
        // Operations that end in the lead-in are load, not samples.
        let Some(into_window) = outcome.end.checked_duration_since(start) else {
            continue;
        };
        let index = (into_window.as_nanos() / slice.as_nanos().max(1)) as usize;
        if let Some(log) = slices.get_mut(index) {
            let latency = (outcome.end - began).as_nanos().min(u128::from(u32::MAX)) as u32;
            log.latency_ns[usize::from(outcome.class == OpClass::Write)].push(latency);
            log.calls += u64::from(outcome.calls);
        }
    }
    CallerReport {
        caller,
        slices,
        attempted,
        failed,
        first_problem,
    }
}

/// Builds one rig, warms it up, measures `window` (zero for a set-up
/// rehearsal), runs the final self-check and tears everything down.
///
/// # Errors
/// Set-up failures only; a failed self-check is `Outcome::finish`.
pub fn run(build: Build<'_>, window: Duration) -> Result<Outcome, String> {
    let setup_started = Instant::now();
    let mut rig = Rig::build(build)?;
    let callers = rig.take_callers();
    let n = callers.len();
    let gates = (Barrier::new(n + 1), Barrier::new(n + 1));
    let start = OnceLock::new();
    let slice = window / SLICES as u32;
    // Room for the fastest workload's samples, so no vector grows (and
    // page-faults) inside the window.
    let slice_capacity = (slice.as_secs_f64() * 80_000.0 / n as f64) as usize + 1024;
    let sampling = AtomicBool::new(false);
    let depth = rig.queue_depth_reader();

    let (reports, setup_s, cpu, before, queue_depth_max) = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .map(|caller| {
                let (gates, start) = (&gates, &start);
                let warmup = build.workload.warmup_ops();
                scope.spawn(move || {
                    caller_loop(caller, warmup, gates, start, window, slice_capacity)
                })
            })
            .collect();
        let sampler = build.traced.then(|| {
            let sampling = &sampling;
            scope.spawn(move || {
                let mut max = 0.0f64;
                while !sampling.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                while sampling.load(Ordering::Relaxed) {
                    max = max.max(depth());
                    std::thread::sleep(Duration::from_millis(2));
                }
                max
            })
        });

        gates.0.wait();
        let setup_s = setup_started.elapsed().as_secs_f64();
        // One slice of unmeasured load first: the window then starts on a
        // system already at its steady state (see `bench_untraced`).
        let started = *start.get_or_init(|| Instant::now() + slice);
        gates.1.wait();
        std::thread::sleep(started.saturating_duration_since(Instant::now()));
        let before = rig.counts();
        trace::set_enabled(build.traced);
        sampling.store(true, Ordering::Relaxed);
        let mut cpu = Vec::with_capacity(SLICES + 1);
        cpu.push(env::cpu_seconds());
        for i in 1..=SLICES as u32 {
            if window.is_zero() {
                break;
            }
            std::thread::sleep((started + slice * i).saturating_duration_since(Instant::now()));
            cpu.push(env::cpu_seconds());
        }
        let reports: Vec<CallerReport> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        trace::set_enabled(false);
        sampling.store(false, Ordering::Relaxed);
        let queue_depth_max = sampler.map_or(0.0, |s| s.join().expect("sampler panicked"));
        (reports, setup_s, cpu, before, queue_depth_max)
    });

    let counts = rig.counts();
    let moved = counts
        .iter()
        .map(|(key, value)| (key.clone(), value - before.get(key).copied().unwrap_or(0.0)))
        .collect();
    let codec_ns_per_call = rig.codec_ns_per_call();
    let (spans, totals) = if build.traced {
        trace::drain()
    } else {
        (Vec::new(), Totals::default())
    };
    let tallies: Vec<Tally> = reports.iter().map(|r| r.caller.tally()).collect();
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    let first_problem = reports.iter().find_map(|r| r.first_problem.clone());
    let series = if window.is_zero() {
        Series::default()
    } else {
        series_of(&reports, &cpu, slice)
    };
    drop(reports);
    let finish = rig.finish(&tallies);
    Ok(Outcome {
        setup_s,
        series,
        attempted,
        failed,
        first_problem,
        finish,
        counts,
        moved,
        spans,
        totals,
        queue_depth_max,
        codec_ns_per_call,
    })
}

fn series_of(reports: &[CallerReport], cpu: &[f64], slice: Duration) -> Series {
    let mut series = Series::default();
    let mut whole: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    for i in 0..SLICES {
        let mut latencies: Vec<u32> = reports
            .iter()
            .flat_map(|r| r.slices[i].latency_ns.iter().flatten().copied())
            .collect();
        latencies.sort_unstable();
        let calls: u64 = reports.iter().map(|r| r.slices[i].calls).sum();
        series.ops += latencies.len() as u64;
        series.calls += calls;
        series.samples.push(latencies.len());
        series.calls_per_s.push(calls as f64 / slice.as_secs_f64());
        if !latencies.is_empty() {
            series
                .flush_p50_us
                .push(us(percentile_sorted(&latencies, 0.5)));
            series
                .flush_p99_us
                .push(us(percentile_sorted(&latencies, 0.99)));
        }
        if calls > 0 {
            series
                .cpu_us_per_call
                .push((cpu[i + 1] - cpu[i]) * 1e6 / calls as f64);
        }
        for report in reports {
            for (class, samples) in report.slices[i].latency_ns.iter().enumerate() {
                whole[class].extend_from_slice(samples);
            }
        }
    }
    let p50 = |samples: &mut Vec<u32>| {
        samples.sort_unstable();
        if samples.is_empty() {
            0.0
        } else {
            us(percentile_sorted(samples, 0.5))
        }
    };
    let [mut reads, mut writes] = whole;
    series.read_p50_us = p50(&mut reads);
    series.write_p50_us = p50(&mut writes);
    reads.append(&mut writes);
    reads.sort_unstable();
    if !reads.is_empty() {
        series.flush_p999_us = us(percentile_sorted(&reads, 0.999));
    }
    series
}
