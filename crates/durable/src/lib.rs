//! # brmi-durable
//!
//! The persistence substrate behind the origin's crash recoverability: a
//! **segmented append-only log** with length-prefixed, CRC-stamped records,
//! group-commit batched appends, compacting snapshots, and a recovery scan
//! that truncates at the first torn or corrupt record — in the spirit of
//! sapling's `lib/indexedlog`, sized for this middleware.
//!
//! The design contract, in one paragraph: a record handed to
//! [`Log::append`] is *durable* once [`Log::commit`] (or
//! [`Log::append_durable`]) returns — the bytes and everything appended
//! before them survive a power cut. Concurrent committers share fsyncs:
//! one of them leads a group to the disk with the log unlocked while the
//! others stage the next (the commit protocol is in the [`log`] module
//! docs). Nothing else is promised: a crash may
//! tear the uncommitted tail at **any byte boundary**, including the middle
//! of a record header. [`Log::open`] recovers exactly the durable prefix:
//! it verifies each record's length and CRC in order and truncates the log
//! at the first record that fails, because nothing after a torn record was
//! ever acknowledged.
//!
//! Crashes are simulated, deterministically, with [`CrashPoint`]: a byte
//! budget armed on the log's write path. When the budget runs out
//! mid-write the remaining bytes of that write are discarded (a torn
//! partial write, exactly what a power cut leaves behind) and every later
//! operation fails with [`LogError::Crashed`] — the process-local stand-in
//! for the machine being gone. Tests arm a point, run a workload until it
//! strikes, then reopen the directory and assert the recovered state.
//!
//! Metrics: [`Log::register_metrics`] exposes the `durable_*` counter
//! families (`durable_appends`, `durable_bytes`, `durable_fsyncs`,
//! `durable_recoveries`, `durable_truncated_records`, plus
//! `durable_snapshots`) and the group-commit histograms
//! (`durable_fsync_latency_nanos`, `durable_group_size`,
//! `durable_commit_wait_nanos`).
//!
//! [`TempDir`] is the workspace's tempdir guard: every test and bench rig
//! that creates durable state routes its paths through one so an assert or
//! panic never leaves stray files behind.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod crash;
pub mod log;
pub mod tempdir;

pub use crash::CrashPoint;
pub use log::{Log, LogConfig, LogError, LogStats, Recovered};
pub use tempdir::TempDir;
