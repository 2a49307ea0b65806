//! # brmi-bench
//!
//! The experimental harness reproducing every figure of the BRMI paper's
//! evaluation (Section 5). The *real* middleware runs over the
//! [simulated network](brmi_transport::sim) in virtual time, so a full
//! sweep is deterministic and finishes in milliseconds of wall time while
//! reporting the latency a physical testbed would exhibit.
//!
//! * [`figures`] — one scenario per paper figure (5–13) plus ablations;
//! * [`extensions`] — experiments beyond the paper: the implicit-batching
//!   baseline and the hand-written DTO facade, measured against BRMI;
//! * [`model`] — analytic performance models for every construct (the
//!   Detmold & Oudshoorn extension the paper proposes as future work),
//!   validated against the simulator in `tests/model_check.rs`;
//! * [`stress`] — the reactor TCP throughput sweep over real sockets:
//!   growing client counts against one epoll reactor server, with
//!   deterministic wire-level series for the committed baseline;
//! * [`relay`] — the multi-tier topology sweep: the same clients behind an
//!   edge relay, measuring origin round trips saved by coalescing;
//! * [`fetcher`] — the keyed read-cache sweep: a client fleet rereading one
//!   hot key set through a `BatchFetcher`, measuring origin executions
//!   saved by dedup + caching;
//! * [`mux`] — the evented-client sweep: N concurrent callers over one
//!   multiplexed socket vs the pooled baseline, measuring sockets and
//!   write syscalls saved;
//! * [`retry`] — the keyed-retry goodput sweep: clients over seeded lossy
//!   links with transparent re-sends, proving exactly-once visible
//!   execution at every drop rate;
//! * [`durable`] — the durable-origin sweep: the keyed workload against a
//!   journaled origin vs its in-memory twin, and recovery replay vs log
//!   size, with deterministic append/fsync/replay series for the
//!   committed baseline;
//! * [`obs`] — the observability sweep: a fully traced three-tier rig
//!   under virtual time, measuring span counts, client-flush latency
//!   quantiles from the deterministic histogram, and the wire-byte
//!   overhead of the trace envelope against an untraced twin run;
//! * [`overload`] — the admission-control sweep: thousands of offered
//!   connections against a capped reactor (error-coded shed replies,
//!   never timeouts), bounded-queue tail latency at 2× saturation, and
//!   the adaptive coalescing-window convergence curve;
//! * [`sweeps`] — the table behind the one `brmi-bench` binary: one sweep
//!   per committed `BENCH_*.json` baseline, printing paper-style series.
//!
//! Every simulated scenario runs on
//! [`AppRig::simulated`](brmi_apps::testkit::AppRig::simulated).

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod baseline;
pub mod durable;
pub mod extensions;
pub mod fetcher;
pub mod figures;
pub mod model;
#[cfg(target_os = "linux")]
pub mod mux;
pub mod obs;
#[cfg(target_os = "linux")]
pub mod overload;
#[cfg(target_os = "linux")]
pub mod relay;
#[cfg(target_os = "linux")]
pub mod retry;
#[cfg(target_os = "linux")]
pub mod stress;
pub mod sweeps;

/// One measured series pair for a figure: RMI vs BRMI over a parameter
/// sweep, in simulated milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure id, e.g. `"fig05"`.
    pub id: &'static str,
    /// Paper caption, e.g. `"No-op Benchmark (LAN)"`.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: &'static str,
    /// Sweep points.
    pub x: Vec<u32>,
    /// RMI milliseconds per point.
    pub rmi_ms: Vec<f64>,
    /// BRMI milliseconds per point.
    pub brmi_ms: Vec<f64>,
}

impl Figure {
    /// Prints the figure as the paper-style series table.
    pub fn print(&self) {
        println!("{} — {}", self.id, self.title);
        println!(
            "{:>24} {:>12} {:>12}",
            self.x_label, "RMI (ms)", "BRMI (ms)"
        );
        for ((x, rmi), brmi) in self.x.iter().zip(&self.rmi_ms).zip(&self.brmi_ms) {
            println!("{x:>24} {rmi:>12.3} {brmi:>12.3}");
        }
        println!();
    }

    /// Least-squares slope of a series in ms per x unit.
    pub fn slope(x: &[u32], y: &[f64]) -> f64 {
        let n = x.len() as f64;
        let sx: f64 = x.iter().map(|&v| f64::from(v)).sum();
        let sy: f64 = y.iter().sum();
        let sxx: f64 = x.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        let sxy: f64 = x.iter().zip(y).map(|(&v, &w)| f64::from(v) * w).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }

    /// Slope of the RMI series.
    pub fn rmi_slope(&self) -> f64 {
        Self::slope(&self.x, &self.rmi_ms)
    }

    /// Slope of the BRMI series.
    pub fn brmi_slope(&self) -> f64 {
        Self::slope(&self.x, &self.brmi_ms)
    }
}

/// A measured comparison with any number of named series — used by the
/// extension experiments (implicit-batching baseline, DTO facade) that
/// compare more than the paper's two systems.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFigure {
    /// Experiment id, e.g. `"extA"`.
    pub id: &'static str,
    /// Caption.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: &'static str,
    /// Sweep points.
    pub x: Vec<u32>,
    /// Named series, milliseconds per sweep point.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl MultiFigure {
    /// Prints the comparison as a series table.
    pub fn print(&self) {
        println!("{} — {}", self.id, self.title);
        print!("{:>24}", self.x_label);
        for (name, _) in &self.series {
            print!(" {name:>16}");
        }
        println!();
        for (row, x) in self.x.iter().enumerate() {
            print!("{x:>24}");
            for (_, values) in &self.series {
                print!(" {:>16.3}", values[row]);
            }
            println!();
        }
        println!();
    }

    /// The series with the given name.
    ///
    /// # Panics
    ///
    /// Panics when no series has that name (a bug in the caller).
    pub fn series_named(&self, name: &str) -> &[f64] {
        &self
            .series
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no series named {name}"))
            .1
    }

    /// Least-squares slope of the named series in ms per x unit.
    pub fn slope_of(&self, name: &str) -> f64 {
        Figure::slope(&self.x, self.series_named(name))
    }
}
