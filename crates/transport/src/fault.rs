//! Fault injection: wraps any transport and fails requests on a plan.
//!
//! The paper notes that with explicit batching all network and communication
//! errors surface at `flush` (Section 3.3); the failure-injection tests use
//! this transport to verify exactly that. Besides dropping requests, the
//! wrapper can also *delay* every request by charging a fixed duration to a
//! [`Clock`] — a [`SleepClock`](crate::clock::SleepClock) makes the latency
//! real, a [`VirtualClock`](crate::clock::VirtualClock) keeps it simulated.
//!
//! Faults strike at one of two [`FaultPoint`]s. `Request` drops the frame
//! before the server sees it — the easy half of the retry problem, since
//! nothing executed. `Reply` forwards the request (the server executes it)
//! and drops the *answer* — the hard half: a naive retry would run the
//! call twice, which is exactly what idempotency keys and the origin reply
//! cache exist to prevent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use brmi_wire::protocol::Frame;
use brmi_wire::RemoteError;

use crate::clock::Clock;
use crate::Transport;

/// When a [`FaultyTransport`] should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Never fail (control case).
    None,
    /// Fail every request.
    Always,
    /// Fail the `n`th request (1-based), succeed otherwise.
    OnNth(u64),
    /// Fail every `n`th request (1-based, repeating).
    EveryNth(u64),
    /// Fail the first `n` requests, then succeed (models a link that
    /// recovers — useful with the `Repeat`/`Restart` exception actions).
    FirstN(u64),
    /// Fail each request independently with probability
    /// `drop_per_mille / 1000`, driven by a deterministic xorshift PRNG:
    /// the same seed always produces the same drop sequence, so randomized
    /// fault tests are reproducible.
    Seeded {
        /// PRNG seed (zero is mapped to a fixed nonzero value).
        seed: u64,
        /// Drop probability in thousandths (300 = 30%); values ≥ 1000
        /// drop everything.
        drop_per_mille: u16,
    },
}

/// Where on the round trip a [`FaultyTransport`] injects its failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPoint {
    /// Drop the request before the inner transport sees it: the server
    /// never executes.
    #[default]
    Request,
    /// Forward the request — the server executes — then drop the reply on
    /// the way back. The caller sees the same transport error as a lost
    /// request, but the side effect happened.
    Reply,
}

/// A transport decorator that injects transport errors per a [`FaultPlan`].
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    point: FaultPoint,
    attempts: AtomicU64,
    injected: AtomicU64,
    delay: Option<(Arc<dyn Clock>, Duration)>,
    rng: Mutex<u64>,
}

impl<T> FaultyTransport<T> {
    /// Wraps `inner` with the given failure plan, dropping requests (the
    /// default [`FaultPoint`]).
    pub fn new(inner: T, plan: FaultPlan) -> Arc<Self> {
        FaultyTransport::with_fault_point(inner, plan, FaultPoint::default())
    }

    /// Wraps `inner` with the given failure plan striking at `point`.
    pub fn with_fault_point(inner: T, plan: FaultPlan, point: FaultPoint) -> Arc<Self> {
        Arc::new(FaultyTransport {
            inner,
            plan,
            point,
            attempts: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            delay: None,
            rng: Mutex::new(seed_of(plan)),
        })
    }

    /// As [`FaultyTransport::new`], additionally charging `delay` to
    /// `clock` before every request (including the ones that then fail) —
    /// models a slow link on top of the failure plan.
    pub fn with_delay(
        inner: T,
        plan: FaultPlan,
        clock: Arc<dyn Clock>,
        delay: Duration,
    ) -> Arc<Self> {
        Arc::new(FaultyTransport {
            inner,
            plan,
            point: FaultPoint::default(),
            attempts: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            delay: Some((clock, delay)),
            rng: Mutex::new(seed_of(plan)),
        })
    }

    /// Total requests attempted through this transport.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn should_fail(&self, attempt: u64) -> bool {
        match self.plan {
            FaultPlan::None => false,
            FaultPlan::Always => true,
            FaultPlan::OnNth(n) => attempt == n,
            FaultPlan::EveryNth(n) => n != 0 && attempt.is_multiple_of(n),
            FaultPlan::FirstN(n) => attempt <= n,
            FaultPlan::Seeded { drop_per_mille, .. } => {
                let mut state = self.rng.lock().expect("fault rng poisoned");
                // xorshift64: deterministic, allocation-free, good enough
                // for drop decisions.
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                x % 1000 < u64::from(drop_per_mille)
            }
        }
    }
}

fn seed_of(plan: FaultPlan) -> u64 {
    match plan {
        // xorshift has a fixed point at zero; nudge it off.
        FaultPlan::Seeded { seed: 0, .. } => 0x9E37_79B9_7F4A_7C15,
        FaultPlan::Seeded { seed, .. } => seed,
        _ => 0,
    }
}

impl<T> std::fmt::Debug for FaultyTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("plan", &self.plan)
            .field("attempts", &self.attempts())
            .finish_non_exhaustive()
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((clock, delay)) = &self.delay {
            clock.advance(*delay);
        }
        if !self.should_fail(attempt) {
            return self.inner.request(frame);
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        match self.point {
            FaultPoint::Request => Err(RemoteError::transport(format!(
                "injected fault on request {attempt}"
            ))),
            FaultPoint::Reply => {
                // The server executes; only the answer is lost.
                let _ = self.inner.request(frame);
                Err(RemoteError::transport(format!(
                    "injected reply loss on request {attempt}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTransport;
    use crate::RequestHandler;
    use brmi_wire::value::Value;
    use brmi_wire::ObjectId;

    struct NullHandler;

    impl RequestHandler for NullHandler {
        fn handle(&self, _frame: Frame) -> Frame {
            Frame::Return(Value::Null)
        }
    }

    fn call() -> Frame {
        Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "noop".into(),
            args: vec![],
        }
    }

    fn transport(plan: FaultPlan) -> Arc<FaultyTransport<SimTransport>> {
        FaultyTransport::new(SimTransport::in_process(Arc::new(NullHandler)), plan)
    }

    #[test]
    fn none_never_fails() {
        let t = transport(FaultPlan::None);
        for _ in 0..10 {
            assert!(t.request(call()).is_ok());
        }
        assert_eq!(t.injected(), 0);
    }

    #[test]
    fn always_always_fails() {
        let t = transport(FaultPlan::Always);
        for _ in 0..3 {
            let err = t.request(call()).unwrap_err();
            assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport);
        }
        assert_eq!(t.injected(), 3);
    }

    #[test]
    fn on_nth_fails_exactly_once() {
        let t = transport(FaultPlan::OnNth(2));
        assert!(t.request(call()).is_ok());
        assert!(t.request(call()).is_err());
        assert!(t.request(call()).is_ok());
        assert_eq!(t.injected(), 1);
    }

    #[test]
    fn every_nth_fails_periodically() {
        let t = transport(FaultPlan::EveryNth(3));
        let outcomes: Vec<bool> = (0..9).map(|_| t.request(call()).is_ok()).collect();
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn delay_is_charged_to_the_clock_even_when_failing() {
        use crate::clock::{Clock, VirtualClock};
        use std::time::Duration;
        let clock = VirtualClock::new();
        let t = FaultyTransport::with_delay(
            SimTransport::in_process(Arc::new(NullHandler)),
            FaultPlan::OnNth(2),
            clock.clone(),
            Duration::from_millis(7),
        );
        assert!(t.request(call()).is_ok());
        assert!(t.request(call()).is_err());
        assert_eq!(Clock::elapsed(&*clock), Duration::from_millis(14));
    }

    #[test]
    fn first_n_recovers() {
        let t = transport(FaultPlan::FirstN(2));
        assert!(t.request(call()).is_err());
        assert!(t.request(call()).is_err());
        assert!(t.request(call()).is_ok());
        assert_eq!(t.attempts(), 3);
        assert_eq!(t.injected(), 2);
    }

    /// Counts how many requests actually reached the handler.
    struct CountingHandler {
        hits: AtomicU64,
    }

    impl RequestHandler for CountingHandler {
        fn handle(&self, _frame: Frame) -> Frame {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Frame::Return(Value::Null)
        }
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn request_loss_never_reaches_the_server() {
        let handler = Arc::new(CountingHandler {
            hits: AtomicU64::new(0),
        });
        let t = FaultyTransport::with_fault_point(
            SimTransport::in_process(Arc::clone(&handler) as Arc<dyn RequestHandler>),
            FaultPlan::OnNth(1),
            FaultPoint::Request,
        );
        assert!(t.request(call()).is_err());
        assert_eq!(handler.hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reply_loss_executes_then_drops_the_answer() {
        let handler = Arc::new(CountingHandler {
            hits: AtomicU64::new(0),
        });
        let t = FaultyTransport::with_fault_point(
            SimTransport::in_process(Arc::clone(&handler) as Arc<dyn RequestHandler>),
            FaultPlan::OnNth(1),
            FaultPoint::Reply,
        );
        let err = t.request(call()).unwrap_err();
        assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport);
        assert!(err.message().contains("reply loss"));
        // The hard half of the retry problem: the call DID run.
        assert_eq!(handler.hits.load(Ordering::Relaxed), 1);
        assert!(t.request(call()).is_ok());
        assert_eq!(handler.hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let plan = FaultPlan::Seeded {
            seed: 42,
            drop_per_mille: 300,
        };
        let outcomes = |t: &Arc<FaultyTransport<SimTransport>>| -> Vec<bool> {
            (0..64).map(|_| t.request(call()).is_ok()).collect()
        };
        let a = outcomes(&transport(plan));
        let b = outcomes(&transport(plan));
        assert_eq!(a, b, "same seed, same drop sequence");
        let c = outcomes(&transport(FaultPlan::Seeded {
            seed: 43,
            drop_per_mille: 300,
        }));
        assert_ne!(a, c, "different seed, different sequence");
        // Roughly the requested rate (loose bounds; the point is
        // determinism, not statistical quality).
        let drops = a.iter().filter(|ok| !**ok).count();
        assert!((5..=40).contains(&drops), "{drops} drops out of 64");
    }

    #[test]
    fn seeded_zero_seed_still_drops() {
        let t = transport(FaultPlan::Seeded {
            seed: 0,
            drop_per_mille: 1000,
        });
        assert!(t.request(call()).is_err());
        assert!(t.request(call()).is_err());
    }
}
