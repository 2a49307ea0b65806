//! Clocks for charging simulated network time.
//!
//! The benchmark harness runs the *real* middleware over a simulated network;
//! instead of sleeping for every round trip it advances a [`VirtualClock`],
//! so a full parameter sweep of the paper's figures completes in
//! milliseconds of wall time while reporting deterministic simulated
//! milliseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A source of simulated (or real) elapsed time.
pub trait Clock: Send + Sync {
    /// Charges `duration` of network/processing time.
    fn advance(&self, duration: Duration);

    /// Total time charged so far.
    fn elapsed(&self) -> Duration;
}

/// A deterministic clock that accumulates charged time in an atomic counter.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock::default())
    }

    /// Resets the clock to zero; used between benchmark iterations.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }

    /// Elapsed simulated time in fractional milliseconds.
    pub fn elapsed_millis(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1.0e6
    }
}

impl Clock for VirtualClock {
    fn advance(&self, duration: Duration) {
        let nanos = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

// A virtual clock is also an observability time source, so trace span
// timestamps and simulated network costs can share one timebase — the key
// to byte-identical latency histograms and waterfalls in `BENCH_obs` — and
// the relay's flush window and the fetcher's TTLs run on test-driven time.
impl brmi_obs::TimeSource for VirtualClock {
    fn now(&self) -> Duration {
        Clock::elapsed(self)
    }

    // Time only moves when a test advances the clock, so a deadline wait
    // polls instead of sleeping the whole remainder.
    fn wait_slice(&self, remaining: Duration) -> Duration {
        remaining.min(Duration::from_millis(1))
    }
}

/// A clock that really sleeps, for demos where wall-clock latency should be
/// observable (e.g. the quickstart example on a "wireless" profile).
#[derive(Debug, Default)]
pub struct SleepClock {
    slept_nanos: AtomicU64,
}

impl SleepClock {
    /// Creates a sleeping clock.
    pub fn new() -> Arc<Self> {
        Arc::new(SleepClock::default())
    }
}

impl Clock for SleepClock {
    fn advance(&self, duration: Duration) {
        std::thread::sleep(duration);
        let nanos = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        self.slept_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.slept_nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_accumulates() {
        let clock = VirtualClock::new();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_millis(3));
        clock.advance(Duration::from_micros(500));
        assert_eq!(clock.elapsed(), Duration::from_micros(3500));
        assert!((clock.elapsed_millis() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn virtual_clock_resets() {
        let clock = VirtualClock::new();
        clock.advance(Duration::from_secs(1));
        clock.reset();
        assert_eq!(clock.elapsed(), Duration::ZERO);
    }

    #[test]
    fn virtual_clock_is_shared_across_threads() {
        let clock = VirtualClock::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        clock.advance(Duration::from_nanos(10));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(clock.elapsed(), Duration::from_nanos(8 * 100 * 10));
    }

    #[test]
    fn sleep_clock_sleeps_and_records() {
        let clock = SleepClock::new();
        let start = std::time::Instant::now();
        clock.advance(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(clock.elapsed(), Duration::from_millis(5));
    }
}
