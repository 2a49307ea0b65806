//! Reconnect-and-retry for keyed traffic: the client half of retry-safe
//! exactly-once visible semantics.
//!
//! [`RetryTransport`] wraps a *connect factory* rather than a live
//! transport: when a request fails with a transport-kind error, the broken
//! connection is discarded and a fresh one is dialed with capped
//! exponential backoff ([`RetryPolicy`]). Whether the request is then
//! *re-sent* depends on its delivery mode:
//!
//! * **Retry-safe frames** ([`Frame::is_retry_safe`] — calls and batches
//!   whose `key` is set, traced or not) are re-sent verbatim. This is safe even when the
//!   original request executed and only its reply was lost, because the
//!   origin's reply cache answers the re-sent key with the recorded reply
//!   instead of executing again.
//! * **Everything else** keeps the classic at-most-once contract: the
//!   failure propagates to the caller after the first attempt (the broken
//!   connection is still replaced, so the *next* request gets a fresh
//!   link).
//!
//! Application errors and other non-transport failures are never retried —
//! they are the reply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use brmi_wire::protocol::Frame;
use brmi_wire::{RemoteError, RemoteErrorKind};

use crate::Transport;

/// How hard a [`RetryTransport`] tries: attempt budget and capped
/// exponential backoff between attempts, with seeded deterministic
/// jitter to spread redial storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (so `1` disables
    /// retrying entirely).
    pub max_attempts: u32,
    /// Backoff before the first re-attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter span as a fraction of the nominal backoff, in per-mille
    /// (`250` spreads each delay ±12.5% around the nominal). `0`
    /// disables jitter. Without jitter, every client that lost the same
    /// origin redials on the same doubling schedule and the reconnect
    /// storm arrives in lockstep waves.
    pub jitter_per_mille: u16,
    /// Seed for the jitter stream. Two transports with different seeds
    /// de-correlate; the same seed reproduces the exact delay sequence,
    /// keeping tests and benchmarks deterministic.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            jitter_per_mille: 250,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// SplitMix64: a tiny, well-mixed pure function from one `u64` to
/// another. Used for jitter so backoff needs no RNG state or `rand`
/// dependency, and the sequence is reproducible from the seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy that never waits between attempts — deterministic tests.
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_per_mille: 0,
            jitter_seed: 0,
        }
    }

    /// Returns this policy with a different jitter seed (builder-style,
    /// for giving each client its own de-correlated stream).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Nominal backoff before retry number `retry` (1-based):
    /// `base * 2^(retry-1)`, capped at `max_delay`. Jitter-free — the
    /// schedule's center line.
    pub fn delay_for(&self, retry: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32
            .checked_shl(retry.saturating_sub(1))
            .unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(factor)
            .map_or(self.max_delay, |d| d.min(self.max_delay))
    }

    /// The actual backoff slept before retry number `retry`: the nominal
    /// [`RetryPolicy::delay_for`] spread symmetrically by up to
    /// `jitter_per_mille`. `salt` distinguishes draws within one stream
    /// (the transport passes a running retry counter); the same
    /// `(seed, salt, retry)` always yields the same delay.
    pub fn jittered_delay(&self, retry: u32, salt: u64) -> Duration {
        let nominal = self.delay_for(retry);
        if self.jitter_per_mille == 0 || nominal.is_zero() {
            return nominal;
        }
        let nanos = u64::try_from(nominal.as_nanos()).unwrap_or(u64::MAX);
        let span = nanos / 1000 * u64::from(self.jitter_per_mille);
        let draw =
            splitmix64(self.jitter_seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)) % (span + 1);
        Duration::from_nanos(nanos.saturating_sub(span / 2).saturating_add(draw))
    }
}

struct Link {
    generation: u64,
    current: Option<Arc<dyn Transport>>,
}

/// A reconnecting transport over a connect factory — see the
/// [module docs](self).
pub struct RetryTransport {
    connect: Box<dyn Fn() -> Result<Arc<dyn Transport>, RemoteError> + Send + Sync>,
    policy: RetryPolicy,
    link: Mutex<Link>,
    retries: AtomicU64,
    reconnects: AtomicU64,
}

impl RetryTransport {
    /// Wraps a connect factory. The factory is called lazily on first use
    /// and again after every discarded connection.
    pub fn new<F>(connect: F, policy: RetryPolicy) -> Arc<Self>
    where
        F: Fn() -> Result<Arc<dyn Transport>, RemoteError> + Send + Sync + 'static,
    {
        Arc::new(RetryTransport {
            connect: Box::new(connect),
            policy,
            link: Mutex::new(Link {
                generation: 0,
                current: None,
            }),
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        })
    }

    /// Wraps an already-connected transport that cannot be re-dialed (the
    /// factory hands back the same instance forever). Useful for layering
    /// retry semantics over stateless transports and in tests.
    pub fn over(transport: Arc<dyn Transport>, policy: RetryPolicy) -> Arc<Self> {
        RetryTransport::new(move || Ok(Arc::clone(&transport)), policy)
    }

    /// Re-sends performed for retry-safe frames (excludes each first
    /// attempt).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Times the connect factory ran (first dial included).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// The policy this transport was built with.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Returns the live connection, dialing one if needed. Holding the
    /// lock across the dial serializes a reconnect storm into one dial.
    fn acquire(&self) -> Result<(u64, Arc<dyn Transport>), RemoteError> {
        let mut link = self.link.lock().expect("retry link poisoned");
        if let Some(current) = &link.current {
            return Ok((link.generation, Arc::clone(current)));
        }
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        let fresh = (self.connect)()?;
        link.generation += 1;
        link.current = Some(Arc::clone(&fresh));
        Ok((link.generation, fresh))
    }

    /// Discards the connection of `generation` (a newer one, dialed by a
    /// concurrent caller, is left alone).
    fn discard(&self, generation: u64) {
        let mut link = self.link.lock().expect("retry link poisoned");
        if link.generation == generation {
            link.current = None;
        }
    }
}

impl std::fmt::Debug for RetryTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryTransport")
            .field("policy", &self.policy)
            .field("retries", &self.retries())
            .field("reconnects", &self.reconnects())
            .finish_non_exhaustive()
    }
}

impl Transport for RetryTransport {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let retry_safe = frame.is_retry_safe();
        let budget = if retry_safe {
            self.policy.max_attempts.max(1)
        } else {
            1
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let (generation, transport) = self.acquire()?;
            match transport.request(frame.clone()) {
                Ok(reply) => return Ok(reply),
                Err(err) if err.kind() == RemoteErrorKind::Transport => {
                    // The link is suspect either way; replace it so the
                    // next request (ours or anyone's) redials.
                    self.discard(generation);
                    if attempt >= budget {
                        return Err(err);
                    }
                    // The running retry count salts the jitter stream, so
                    // consecutive redials (even for the same attempt
                    // number) land at spread-out offsets.
                    let salt = self.retries.fetch_add(1, Ordering::Relaxed);
                    let delay = self.policy.jittered_delay(attempt, salt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                Err(err) => return Err(err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultPoint, FaultyTransport};
    use crate::inproc::InProcTransport;
    use crate::pool::TcpPool;
    use crate::RequestHandler;
    use brmi_wire::protocol::IdemKey;
    use brmi_wire::{ObjectId, Value};

    struct EchoHandler;

    impl RequestHandler for EchoHandler {
        fn handle(&self, frame: Frame) -> Frame {
            match frame {
                Frame::Call { key: Some(key), .. } => Frame::Return(Value::I64(key.seq as i64)),
                Frame::Call { .. } => Frame::Return(Value::Null),
                _ => Frame::Return(Value::Null),
            }
        }
    }

    fn keyed(seq: u64) -> Frame {
        Frame::Call {
            key: Some(IdemKey {
                client_id: 1,
                seq,
                acked: 0,
            }),
            target: ObjectId(1),
            method: "m".into(),
            args: vec![],
        }
    }

    fn plain() -> Frame {
        Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "m".into(),
            args: vec![],
        }
    }

    fn faulty(plan: FaultPlan) -> Arc<FaultyTransport<InProcTransport>> {
        FaultyTransport::new(InProcTransport::new(Arc::new(EchoHandler)), plan)
    }

    #[test]
    fn keyed_frames_are_retried_until_success() {
        let inner = faulty(FaultPlan::FirstN(2));
        let retry = RetryTransport::over(Arc::clone(&inner) as _, RetryPolicy::immediate(5));
        let reply = retry.request(keyed(0)).unwrap();
        assert_eq!(reply, Frame::Return(Value::I64(0)));
        assert_eq!(inner.attempts(), 3);
        assert_eq!(retry.retries(), 2);
    }

    #[test]
    fn keyed_frames_survive_reply_loss() {
        let inner = FaultyTransport::with_fault_point(
            InProcTransport::new(Arc::new(EchoHandler)),
            FaultPlan::OnNth(1),
            FaultPoint::Reply,
        );
        let retry = RetryTransport::over(Arc::clone(&inner) as _, RetryPolicy::immediate(3));
        assert_eq!(
            retry.request(keyed(7)).unwrap(),
            Frame::Return(Value::I64(7))
        );
        assert_eq!(retry.retries(), 1);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_last_error() {
        let inner = faulty(FaultPlan::Always);
        let retry = RetryTransport::over(inner as _, RetryPolicy::immediate(3));
        let err = retry.request(keyed(0)).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::Transport);
        assert_eq!(retry.retries(), 2, "3 attempts = 2 retries");
    }

    #[test]
    fn unkeyed_frames_keep_at_most_once() {
        let inner = faulty(FaultPlan::OnNth(1));
        let retry = RetryTransport::over(Arc::clone(&inner) as _, RetryPolicy::immediate(5));
        assert!(retry.request(plain()).is_err());
        assert_eq!(inner.attempts(), 1, "no re-send for unkeyed traffic");
        assert_eq!(retry.retries(), 0);
        // The connection was still replaced: the next request works.
        assert!(retry.request(plain()).is_ok());
    }

    #[test]
    fn application_errors_are_not_retried() {
        struct FailingHandler;
        impl RequestHandler for FailingHandler {
            fn handle(&self, _frame: Frame) -> Frame {
                Frame::Error(brmi_wire::invocation::ErrorEnvelope::from(
                    &RemoteError::application("OverdraftException", "limit"),
                ))
            }
        }
        let retry = RetryTransport::over(
            Arc::new(InProcTransport::new(Arc::new(FailingHandler))) as _,
            RetryPolicy::immediate(5),
        );
        // In-band error frames are successful round trips at this layer.
        let reply = retry.request(keyed(0)).unwrap();
        assert!(matches!(reply, Frame::Error(_)));
        assert_eq!(retry.retries(), 0);
    }

    #[test]
    fn reconnect_dials_a_fresh_transport_after_failure() {
        use std::sync::atomic::AtomicU64;
        let dials = Arc::new(AtomicU64::new(0));
        let retry = {
            let dials = Arc::clone(&dials);
            RetryTransport::new(
                move || {
                    let n = dials.fetch_add(1, Ordering::Relaxed) + 1;
                    // The first dialed connection always fails; later ones
                    // work.
                    let plan = if n == 1 {
                        FaultPlan::Always
                    } else {
                        FaultPlan::None
                    };
                    Ok(
                        FaultyTransport::new(InProcTransport::new(Arc::new(EchoHandler)), plan)
                            as Arc<dyn Transport>,
                    )
                },
                RetryPolicy::immediate(3),
            )
        };
        assert_eq!(
            retry.request(keyed(0)).unwrap(),
            Frame::Return(Value::I64(0))
        );
        assert_eq!(dials.load(Ordering::Relaxed), 2);
        assert_eq!(retry.reconnects(), 2);
        // The good connection is reused; no extra dial.
        assert!(retry.request(keyed(1)).is_ok());
        assert_eq!(dials.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn connect_failures_propagate() {
        let retry = RetryTransport::new(
            || Err(RemoteError::transport("refused")),
            RetryPolicy::immediate(3),
        );
        assert!(retry.request(keyed(0)).is_err());
    }

    /// A hand-rolled server that reads `drop_replies` requests and hangs up
    /// on each without answering, then serves subsequent connections
    /// properly. Lets the pooled tests below exercise the
    /// written-but-unanswered window that the pool's checkout liveness
    /// probe cannot catch.
    fn flaky_server(drop_replies: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        use crate::framing::{read_frame_bytes, write_frame};
        use brmi_wire::WireCodec;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..drop_replies {
                let (mut peer, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                // Read the request so the client's write succeeds, then
                // hang up: the reply is lost after execution would have
                // happened.
                let _ = read_frame_bytes(&mut peer, &mut buf);
            }
            let (mut peer, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut out = Vec::new();
            while let Ok(true) = read_frame_bytes(&mut peer, &mut buf) {
                let reply = match Frame::from_wire_bytes(&buf).unwrap() {
                    Frame::Call { key: Some(key), .. } => Frame::Return(Value::I64(key.seq as i64)),
                    _ => Frame::Return(Value::Null),
                };
                write_frame(&mut peer, &reply, &mut out).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn keyed_request_is_resent_after_reply_loss() {
        let (addr, server) = flaky_server(2);
        let pool = TcpPool::connect(addr).unwrap();
        let retry = RetryTransport::over(Arc::new(pool), RetryPolicy::immediate(5));
        // The pooled warm connection gets hung up on, as does the first
        // redial; the third attempt lands on the well-behaved connection.
        let reply = retry.request(keyed(42)).unwrap();
        assert_eq!(reply, Frame::Return(Value::I64(42)));
        assert_eq!(retry.retries(), 2);
        drop(retry);
        server.join().unwrap();
    }

    #[test]
    fn unkeyed_request_is_never_resent() {
        let (addr, server) = flaky_server(1);
        let pool = Arc::new(TcpPool::connect(addr).unwrap());
        let retry = RetryTransport::over(pool.clone(), RetryPolicy::immediate(5));
        // At-most-once: the lost reply surfaces as an error instead of a
        // replay, even though the policy would allow five attempts.
        assert!(retry.request(plain()).is_err());
        assert_eq!(retry.retries(), 0);
        // The connection broke mid-round-trip, so it was dropped rather
        // than pooled again.
        assert_eq!(pool.idle_connections(), 0);
        // The pool itself is still healthy: a fresh request dials the
        // well-behaved connection.
        assert_eq!(retry.request(plain()).unwrap(), Frame::Return(Value::Null));
        drop((retry, pool));
        server.join().unwrap();
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.delay_for(1), Duration::from_millis(10));
        assert_eq!(policy.delay_for(2), Duration::from_millis(20));
        assert_eq!(policy.delay_for(3), Duration::from_millis(40));
        assert_eq!(policy.delay_for(4), Duration::from_millis(50), "capped");
        assert_eq!(policy.delay_for(63), Duration::from_millis(50));
        assert_eq!(RetryPolicy::immediate(3).delay_for(5), Duration::ZERO);
    }

    #[test]
    fn jitter_spreads_redials_deterministically() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            jitter_per_mille: 250,
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        // Pin the redial spread for one retry number across salts: every
        // delay stays inside nominal ± 12.5%, the draws genuinely
        // differ (no lockstep redial wave), and the whole sequence is a
        // pure function of the seed.
        let nominal = policy.delay_for(2); // 20ms
        let span = nominal.mul_f64(0.25);
        let delays: Vec<Duration> = (0..16).map(|salt| policy.jittered_delay(2, salt)).collect();
        for (salt, delay) in delays.iter().enumerate() {
            assert!(
                *delay >= nominal - span / 2 && *delay <= nominal + span / 2,
                "salt {salt}: {delay:?} outside [{:?}, {:?}]",
                nominal - span / 2,
                nominal + span / 2
            );
        }
        let distinct: std::collections::BTreeSet<Duration> = delays.iter().copied().collect();
        assert!(
            distinct.len() >= 12,
            "16 salts must spread widely, got {} distinct delays",
            distinct.len()
        );
        let replay: Vec<Duration> = (0..16).map(|salt| policy.jittered_delay(2, salt)).collect();
        assert_eq!(delays, replay, "same seed, same spread");
        let reseeded: Vec<Duration> = (0..16)
            .map(|salt| policy.with_jitter_seed(7).jittered_delay(2, salt))
            .collect();
        assert_ne!(delays, reseeded, "different seeds de-correlate");
    }

    #[test]
    fn jitter_zero_and_immediate_policies_stay_nominal() {
        let no_jitter = RetryPolicy {
            jitter_per_mille: 0,
            ..RetryPolicy::default()
        };
        for retry in 1..6 {
            assert_eq!(
                no_jitter.jittered_delay(retry, 99),
                no_jitter.delay_for(retry)
            );
        }
        assert_eq!(
            RetryPolicy::immediate(5).jittered_delay(3, 1),
            Duration::ZERO
        );
    }
}
