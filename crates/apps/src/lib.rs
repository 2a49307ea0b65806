//! # brmi-apps
//!
//! The BRMI paper's case-study applications and micro-benchmark services,
//! re-implemented in Rust (paper Sections 5.1 and 5.3):
//!
//! * [`fileserver`] — the Remote File Server running example and macro
//!   benchmark: directory listings, bulk fetches, delete-by-date.
//! * [`bank`] — credit-card management with the custom exception policy.
//! * [`translator`] — a one-word-at-a-time service batched dynamically.
//! * [`list`] — linked-list traversal (Figures 7–9).
//! * [`simulation`] — the Simulation/Balancer identity benchmark
//!   (Figures 10–11).
//! * [`noop`] — the no-op overhead benchmark (Figures 5–6).
//! * [`implicit_clients`] — the same workloads driven through the
//!   implicit-batching baseline ([`brmi_implicit`]), quantifying the
//!   paper's related-work comparison.
//! * [`durable`] — the durable-origin stress workload: the keyed no-op
//!   load against a journaled origin vs its in-memory twin, plus a
//!   recovery replay of the same directory, with deterministic
//!   append/fsync/replay counts for the committed bench baseline.
//! * [`stress`] — the many-client stress workload: N pooled clients ×
//!   pipelined batches against one reactor server, with deterministic
//!   count/byte outputs for the committed bench baseline.
//! * [`relay`] — the multi-tier topology on top of `stress`: the same
//!   clients behind an edge [`BatchRelay`](brmi_transport::relay::BatchRelay)
//!   that coalesces their batches into origin super-batches.
//! * [`overload`] — the admission-control workloads: thousands of offered
//!   connections against a capped reactor (every overflow client reads an
//!   error-coded shed reply), the bounded-queue saturation model, and the
//!   adaptive relay-window convergence sweep.
//!
//! Every application ships an RMI client and a BRMI client with identical
//! observable behaviour; the unit tests in each module are differential
//! tests asserting exactly that, plus the paper's round-trip counts.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod bank;
pub mod durable;
pub mod fetcher;
pub mod fileserver;
pub mod implicit_clients;
pub mod list;
pub mod noop;
#[cfg(target_os = "linux")]
pub mod overload;
#[cfg(target_os = "linux")]
pub mod relay;
pub mod simulation;
#[cfg(target_os = "linux")]
pub mod stress;
pub mod testkit;
pub mod translator;
