//! Deterministic crash-point fault injection for the durable log.
//!
//! A [`CrashPoint`] is a byte budget armed on a [`Log`](crate::Log)'s
//! physical write path. Every byte the log writes draws the budget down;
//! the write during which it reaches zero is cut short at exactly that
//! byte — a torn partial write, the same artifact a power cut leaves on a
//! real disk — and the point flips to *crashed*. From then on every log
//! operation fails with [`LogError::Crashed`](crate::LogError::Crashed),
//! modelling the rest of the machine being gone; the test harness then
//! reopens the directory as the restarted process and asserts on what
//! recovery rebuilt.
//!
//! Budgets are plain numbers, so tests can enumerate *every* injection
//! site of a known workload (`0..total_bytes`) or sample sites from a
//! seed with [`CrashPoint::seeded`] — both perfectly reproducible.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// A one-shot, byte-granular power-cut trigger — see the [module
/// docs](self).
#[derive(Debug)]
pub struct CrashPoint {
    /// Bytes still allowed through the write path. Negative once struck.
    budget: AtomicI64,
    crashed: AtomicBool,
    /// The strike fails one write with an I/O error and leaves the
    /// machine up, instead of cutting the power.
    io_error: bool,
}

impl CrashPoint {
    /// A point that never fires (the budget is effectively infinite).
    pub fn never() -> Arc<CrashPoint> {
        CrashPoint::at_byte(u64::MAX / 2)
    }

    /// Arms a crash after exactly `n` more bytes reach the log's write
    /// path. `n = 0` kills the very first write outright; a value inside
    /// a record's on-disk span produces a torn record.
    pub fn at_byte(n: u64) -> Arc<CrashPoint> {
        CrashPoint::armed(n, false)
    }

    /// Arms a transient fault instead of a power cut: the write during
    /// which `n` more bytes have gone through is cut short at that byte
    /// and fails with [`LogError::Io`](crate::LogError::Io) — a full disk,
    /// a failing device — but the machine stays up, and every later write
    /// passes. What happens next is up to the log, which is the point:
    /// it must not forget the records that write lost.
    pub fn io_error_at_byte(n: u64) -> Arc<CrashPoint> {
        CrashPoint::armed(n, true)
    }

    fn armed(n: u64, io_error: bool) -> Arc<CrashPoint> {
        Arc::new(CrashPoint {
            budget: AtomicI64::new(i64::try_from(n).unwrap_or(i64::MAX)),
            crashed: AtomicBool::new(false),
            io_error,
        })
    }

    /// Derives a crash byte in `[0, span_bytes)` from `seed`
    /// (deterministically — same seed, same site) and arms it. Returns the
    /// point and the chosen offset, so failures can name the site.
    pub fn seeded(seed: u64, span_bytes: u64) -> (Arc<CrashPoint>, u64) {
        let offset = if span_bytes == 0 {
            0
        } else {
            splitmix64(seed) % span_bytes
        };
        (CrashPoint::at_byte(offset), offset)
    }

    /// True once the point has struck (or [`CrashPoint::kill`] was called):
    /// the simulated machine is down and every log operation fails.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Trips the point immediately, without waiting for the byte budget —
    /// an operator-initiated `kill -9` rather than a power cut.
    pub fn kill(&self) {
        self.crashed.store(true, Ordering::SeqCst);
    }

    /// Draws `want` bytes from the budget. Returns how many of them may
    /// actually be written: `want` while the budget holds, a partial count
    /// (possibly zero) on the write that exhausts it. Once struck, always
    /// zero.
    pub(crate) fn admit(&self, want: usize) -> usize {
        if self.is_crashed() {
            return 0;
        }
        let want_i = i64::try_from(want).unwrap_or(i64::MAX);
        let before = self.budget.fetch_sub(want_i, Ordering::SeqCst);
        if before >= want_i {
            return want;
        }
        // This write crosses the budget boundary: allow the remainder (if
        // any) and declare the machine dead — or, for an I/O fault, spend
        // the point so that later writes pass.
        if self.io_error {
            self.budget.store(i64::MAX / 2, Ordering::SeqCst);
        } else {
            self.crashed.store(true, Ordering::SeqCst);
        }
        usize::try_from(before.max(0)).unwrap_or(0)
    }
}

/// The standard splitmix64 mix — a tiny, high-quality seed expander.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_admits_then_tears_then_refuses() {
        let point = CrashPoint::at_byte(10);
        assert_eq!(point.admit(6), 6);
        assert!(!point.is_crashed());
        // 4 budget bytes remain: a 7-byte write is torn to 4.
        assert_eq!(point.admit(7), 4);
        assert!(point.is_crashed());
        assert_eq!(point.admit(1), 0, "dead machines write nothing");
    }

    #[test]
    fn zero_budget_kills_the_first_write() {
        let point = CrashPoint::at_byte(0);
        assert_eq!(point.admit(5), 0);
        assert!(point.is_crashed());
    }

    #[test]
    fn never_does_not_fire() {
        let point = CrashPoint::never();
        for _ in 0..1000 {
            assert_eq!(point.admit(1 << 20), 1 << 20);
        }
        assert!(!point.is_crashed());
    }

    #[test]
    fn io_fault_tears_one_write_and_leaves_the_machine_up() {
        let point = CrashPoint::io_error_at_byte(3);
        assert_eq!(point.admit(5), 3);
        assert!(!point.is_crashed());
        assert_eq!(point.admit(1 << 20), 1 << 20, "the fault is spent");
    }

    #[test]
    fn kill_is_immediate() {
        let point = CrashPoint::at_byte(1 << 30);
        point.kill();
        assert!(point.is_crashed());
        assert_eq!(point.admit(1), 0);
    }

    #[test]
    fn seeded_sites_are_deterministic_and_in_range() {
        let (_, a) = CrashPoint::seeded(42, 1000);
        let (_, b) = CrashPoint::seeded(42, 1000);
        assert_eq!(a, b);
        for seed in 0..64 {
            let (_, site) = CrashPoint::seeded(seed, 1000);
            assert!(site < 1000);
        }
        // The sites actually spread over the span.
        let distinct: std::collections::HashSet<u64> =
            (0..64).map(|s| CrashPoint::seeded(s, 1000).1).collect();
        assert!(distinct.len() > 32);
    }
}
