//! Overload sweep: admission control at thousands of connections, bounded
//! tail latency at 2× saturation, and the adaptive coalescing window.
//!
//! Three figures, all fully deterministic and baseline-checked:
//!
//! * `figO1` — real sockets: a growing offered-connection count (into the
//!   thousands) against one reactor capped at
//!   [`ADMISSION_CAP`] connections. `Admitted` saturates at the cap,
//!   `Shed` absorbs the rest, and `ShedReplies` — the count of overflow
//!   clients that actually *read* an error-coded `overloaded` frame —
//!   equals `Shed` at every point: shedding is a reply, never a timeout.
//! * `figO2` — the bounded-queue saturation model in virtual time: load
//!   from 0.5× to 2× saturation against the reactor's `max_queue_depth`
//!   admission rule, with p50/p99 from the deterministic [`brmi_obs`]
//!   histogram. The tail stays pinned at `depth × service` while the shed
//!   column absorbs exactly the excess load.
//! * `figO3` — the adaptive relay window: a real
//!   [`BatchRelay`](brmi_transport::relay::BatchRelay) on a virtual
//!   clock, swept over arrival spacings; the tuned
//!   `relay_adaptive_delay_nanos` gauge must land on the closed-form
//!   optimum `sqrt(2·U·a) − a` to the nanosecond.

use std::time::Duration;

use brmi_apps::overload::{
    run_adaptive_convergence, run_admission_stress, run_saturation_model, AdmissionConfig,
    AdmissionReport, SaturationConfig, SaturationReport,
};
use brmi_transport::relay::AdaptivePolicy;

use crate::MultiFigure;

/// Connection cap for the admission sweep.
pub const ADMISSION_CAP: usize = 64;

/// The offered-connection sweep: well under the cap up to 32× over it.
pub const OFFERED_SWEEP: [u32; 5] = [8, 64, 256, 1024, 2048];

/// Fixed service time of the saturation model.
pub const SATURATION_SERVICE: Duration = Duration::from_micros(100);

/// Queue-depth bound of the saturation model.
pub const SATURATION_DEPTH: usize = 64;

/// Requests offered per saturation point.
pub const SATURATION_ARRIVALS: usize = 10_000;

/// Offered load per sweep point, in per-mille of saturation: 0.5× to 2×.
pub const LOAD_SWEEP_PER_MILLE: [u32; 4] = [500, 1000, 1500, 2000];

/// Arrival spacings for the adaptive-window sweep, microseconds.
pub const INTERARRIVAL_SWEEP_MICROS: [u32; 6] = [50, 100, 250, 500, 1000, 2000];

/// Batches driven per adaptive sweep point.
pub const ADAPTIVE_ARRIVALS: usize = 16;

/// Runs the admission sweep over `offered` connection counts against the
/// fixed [`ADMISSION_CAP`].
///
/// # Panics
///
/// Panics when a run fails; the workload is local and healthy runs never
/// fail.
pub fn admission_sweep_with(offered: &[u32]) -> (MultiFigure, Vec<AdmissionReport>) {
    let mut admitted = Vec::with_capacity(offered.len());
    let mut shed = Vec::with_capacity(offered.len());
    let mut shed_replies = Vec::with_capacity(offered.len());
    let mut reports = Vec::with_capacity(offered.len());
    for &n in offered {
        let report = run_admission_stress(&AdmissionConfig {
            offered: n as usize,
            max_connections: ADMISSION_CAP,
        })
        .expect("admission run failed");
        admitted.push(report.admitted as f64);
        shed.push(report.shed as f64);
        shed_replies.push(report.shed_replies_seen as f64);
        reports.push(report);
    }
    let figure = MultiFigure {
        id: "figO1",
        title: format!(
            "Admission control: offered connections vs a reactor capped at \
             {ADMISSION_CAP} (every shed client reads an error-coded reply)"
        ),
        x_label: "offered connections",
        x: offered.to_vec(),
        series: vec![
            ("Admitted", admitted),
            ("Shed", shed),
            ("ShedReplies", shed_replies),
        ],
    };
    (figure, reports)
}

/// Runs the bounded-queue saturation model over offered loads given in
/// per-mille of saturation.
pub fn saturation_sweep_with(loads_per_mille: &[u32]) -> (MultiFigure, Vec<SaturationReport>) {
    let service = SATURATION_SERVICE.as_nanos() as u64;
    let mut admitted = Vec::with_capacity(loads_per_mille.len());
    let mut shed = Vec::with_capacity(loads_per_mille.len());
    let mut p50 = Vec::with_capacity(loads_per_mille.len());
    let mut p99 = Vec::with_capacity(loads_per_mille.len());
    let mut reports = Vec::with_capacity(loads_per_mille.len());
    for &load in loads_per_mille {
        let interarrival = Duration::from_nanos(service * 1000 / u64::from(load));
        let report = run_saturation_model(&SaturationConfig {
            arrivals: SATURATION_ARRIVALS,
            interarrival,
            service: SATURATION_SERVICE,
            max_queue_depth: SATURATION_DEPTH,
        });
        admitted.push(report.admitted as f64);
        shed.push(report.shed as f64);
        p50.push(report.p50_nanos as f64);
        p99.push(report.p99_nanos as f64);
        reports.push(report);
    }
    let figure = MultiFigure {
        id: "figO2",
        title: format!(
            "Bounded-queue saturation: {SATURATION_ARRIVALS} arrivals, \
             {SATURATION_SERVICE:?} service, depth bound {SATURATION_DEPTH} \
             (p50/p99 from the deterministic histogram)"
        ),
        x_label: "offered load, per-mille of saturation",
        x: loads_per_mille.to_vec(),
        series: vec![
            ("Admitted", admitted),
            ("Shed", shed),
            ("P50Nanos", p50),
            ("P99Nanos", p99),
        ],
    };
    (figure, reports)
}

/// Runs the adaptive-window convergence sweep over arrival spacings.
///
/// # Panics
///
/// Panics when a relayed batch fails; the in-process origin never does.
pub fn adaptive_figure() -> MultiFigure {
    let adaptive = AdaptivePolicy::default();
    let interarrivals: Vec<Duration> = INTERARRIVAL_SWEEP_MICROS
        .iter()
        .map(|&micros| Duration::from_micros(u64::from(micros)))
        .collect();
    let points = run_adaptive_convergence(adaptive, &interarrivals, ADAPTIVE_ARRIVALS);
    MultiFigure {
        id: "figO3",
        title: format!(
            "Adaptive coalescing window: tuned delay vs arrival spacing \
             (upstream cost {:?}, clamp [{:?}, {:?}])",
            adaptive.upstream_cost, adaptive.min_delay, adaptive.max_delay
        ),
        x_label: "interarrival µs",
        x: INTERARRIVAL_SWEEP_MICROS.to_vec(),
        series: vec![
            (
                "TunedDelayNanos",
                points.iter().map(|p| p.tuned_delay_nanos as f64).collect(),
            ),
            (
                "ExpectedDelayNanos",
                points
                    .iter()
                    .map(|p| p.expected_delay_nanos as f64)
                    .collect(),
            ),
        ],
    }
}

/// Prints the wall-clock side of the admission sweep (not
/// baseline-checked).
pub fn print_measured_admission(reports: &[AdmissionReport]) {
    println!("measured wall-clock admission latency (informational, machine-dependent):");
    println!("{:>22} {:>14}", "offered connections", "elapsed ms");
    for report in reports {
        println!(
            "{:>22} {:>14.2}",
            report.config.offered,
            report.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!();
}
