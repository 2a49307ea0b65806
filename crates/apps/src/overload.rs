//! Overload-engineering workloads: admission control at the reactor,
//! bounded-queue saturation, and the adaptive relay window.
//!
//! Three deterministic experiments back the "graceful shedding, never a
//! timeout" claim:
//!
//! * [`run_admission_stress`] — thousands of real sockets against one
//!   reactor with `max_connections` set: every connection over the cap
//!   must read one error-coded `overloaded` frame and then EOF. Counts
//!   (admitted, shed, shed replies observed) are exact.
//! * [`run_saturation_model`] — a virtual-time single-server queue with
//!   the reactor's `max_queue_depth` admission rule, recording latency
//!   into a [`brmi_obs`] histogram: at 2× saturation the unbounded queue
//!   diverges, while the bounded one sheds the excess and keeps p99 at
//!   `max_queue_depth × service` — the bounded-tail story in integers.
//! * [`run_adaptive_convergence`] — a real [`BatchRelay`] under a
//!   [`VirtualClock`], fed arrivals at a fixed spacing per sweep point:
//!   the published `relay_adaptive_delay_nanos` gauge must converge to
//!   the closed-form optimum `sqrt(2·U·a) − a` of
//!   [`AdaptivePolicy`].

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use brmi_obs::Histogram;
use brmi_transport::inproc::InProcTransport;
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_transport::relay::{AdaptivePolicy, BatchRelay, RelayPolicy};
use brmi_transport::{Clock, RequestHandler, VirtualClock};
use brmi_wire::invocation::{
    BatchRequest, BatchResponse, CallSeq, InvocationData, PolicySpec, SlotOutcome, Target,
};
use brmi_wire::protocol::Frame;
use brmi_wire::{ObjectId, RemoteError, Value, WireCodec};

/// Shape of one admission-control run.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Connections the clients offer (sequentially, all held open).
    pub offered: usize,
    /// The reactor's connection cap ([`ReactorConfig::max_connections`]).
    pub max_connections: usize,
}

/// What one admission run did. Every count is deterministic for a given
/// [`AdmissionConfig`]; `elapsed` is wall clock.
#[derive(Debug, Clone)]
pub struct AdmissionReport {
    /// The configuration that produced this report.
    pub config: AdmissionConfig,
    /// Connections the reactor registered — `min(offered, cap)`.
    pub admitted: u64,
    /// Connections shed at accept (`reactor_connections_shed`).
    pub shed: u64,
    /// Shed clients that actually read the error-coded `overloaded`
    /// frame before EOF — equals `shed`, which is the "never a timeout"
    /// claim verified from the client side.
    pub shed_replies_seen: u64,
    /// Accept-path failures (`reactor_accept_failures`) — zero in a
    /// healthy run; sheds are not failures.
    pub accept_failures: u64,
    /// Wall-clock duration of the connect-and-verify phase.
    pub elapsed: Duration,
}

/// Handler for the admission run: admitted clients never send a request,
/// so it only has to exist.
struct NullHandler;

impl RequestHandler for NullHandler {
    fn handle(&self, _frame: Frame) -> Frame {
        Frame::Return(Value::Null)
    }
}

fn transport_err(err: std::io::Error) -> RemoteError {
    RemoteError::transport(err.to_string())
}

/// Reads one length-prefixed frame off a raw socket; `None` on clean EOF
/// before any header byte.
fn read_raw_frame(stream: &mut TcpStream) -> Result<Option<Frame>, RemoteError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(RemoteError::transport("truncated frame header")),
            Ok(n) => filled += n,
            Err(err) => return Err(transport_err(err)),
        }
    }
    let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
    let mut read = 0;
    while read < body.len() {
        match stream.read(&mut body[read..]) {
            Ok(0) => return Err(RemoteError::transport("truncated frame body")),
            Ok(n) => read += n,
            Err(err) => return Err(transport_err(err)),
        }
    }
    Ok(Some(Frame::from_wire_bytes(&body)?))
}

/// Offers `config.offered` sequential connections to a reactor capped at
/// `config.max_connections` and verifies, from both sides, that exactly
/// the overflow was shed with an error-coded reply.
///
/// The reactor runs a single event-loop thread, so admission decisions
/// happen in connect order and the shed set is exactly the clients past
/// the cap — which lets every one of them be read for its `overloaded`
/// frame without any timeout-based classification.
///
/// # Errors
///
/// Returns the first connect or read error, or a protocol error when a
/// shed client read anything but one `overloaded` frame followed by EOF.
///
/// # Panics
///
/// Panics when the server's admission counters fail to settle within 30
/// seconds.
pub fn run_admission_stress(config: &AdmissionConfig) -> Result<AdmissionReport, RemoteError> {
    let server = ReactorServer::bind_with(
        "127.0.0.1:0",
        Arc::new(NullHandler),
        ReactorConfig {
            reactor_threads: 1,
            max_connections: config.max_connections,
            ..ReactorConfig::default()
        },
    )?;

    let started = Instant::now();
    let mut clients = Vec::with_capacity(config.offered);
    for _ in 0..config.offered {
        clients.push(TcpStream::connect(server.local_addr()).map_err(transport_err)?);
    }

    let cap = config.max_connections.min(config.offered);
    let expect_shed = (config.offered - cap) as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.active_connections() < cap || server.stats().connections_shed() < expect_shed {
        assert!(
            Instant::now() < deadline,
            "admission counters did not settle: {} admitted, {} shed",
            server.active_connections(),
            server.stats().connections_shed()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Client-side proof of error-coded shedding: every client past the
    // cap reads one `overloaded` frame and then EOF. Shed clients never
    // wrote anything, so no reset can race the reply away.
    let mut shed_replies_seen = 0u64;
    for stream in &mut clients[cap..] {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(transport_err)?;
        match read_raw_frame(stream)? {
            Some(Frame::Error(env)) if env.kind == "overloaded" => shed_replies_seen += 1,
            other => {
                return Err(RemoteError::new(
                    brmi_wire::RemoteErrorKind::Protocol,
                    format!("shed client expected an overloaded frame, got {other:?}"),
                ))
            }
        }
        if read_raw_frame(stream)?.is_some() {
            return Err(RemoteError::new(
                brmi_wire::RemoteErrorKind::Protocol,
                "shed connection stayed open after the error frame",
            ));
        }
    }

    Ok(AdmissionReport {
        config: config.clone(),
        admitted: server.active_connections() as u64,
        shed: server.stats().connections_shed(),
        shed_replies_seen,
        accept_failures: server.stats().accept_failures(),
        elapsed: started.elapsed(),
    })
}

/// Shape of one bounded-queue saturation run (virtual time).
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Requests offered to the server.
    pub arrivals: usize,
    /// Fixed spacing between arrivals.
    pub interarrival: Duration,
    /// Fixed per-request service time. Saturation is
    /// `service / interarrival`; 2× saturation means arrivals come twice
    /// as fast as the server drains them.
    pub service: Duration,
    /// Admission bound on requests outstanding (queued + executing) —
    /// the model twin of [`ReactorConfig::max_queue_depth`]. `0` is
    /// unbounded.
    pub max_queue_depth: usize,
}

/// What one saturation run did. Everything is deterministic: the model
/// runs in virtual time and the quantiles come from the deterministic
/// [`brmi_obs`] histogram.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// The configuration that produced this report.
    pub config: SaturationConfig,
    /// Requests admitted and served.
    pub admitted: u64,
    /// Requests shed at arrival because the queue was at its bound.
    pub shed: u64,
    /// Median admitted-request latency (arrival → completion), nanos.
    pub p50_nanos: u64,
    /// 99th-percentile admitted-request latency, nanos.
    pub p99_nanos: u64,
    /// Worst admitted-request latency, nanos.
    pub max_nanos: u64,
}

/// Runs the single-server FIFO admission model: arrivals every
/// `interarrival`, service `service` each, and the reactor's
/// queue-depth shedding rule applied at arrival time. Latency of every
/// admitted request is recorded into a [`Histogram`] and reported as
/// p50/p99 through the same deterministic quantile rule the live
/// metrics use.
pub fn run_saturation_model(config: &SaturationConfig) -> SaturationReport {
    let interarrival = config.interarrival.as_nanos() as u64;
    let service = (config.service.as_nanos() as u64).max(1);
    let latency = Histogram::new();
    // The virtual instant the server finishes everything admitted so far;
    // the backlog at an arrival is whatever of it lies in the future.
    let mut free_at = 0u64;
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for i in 0..config.arrivals as u64 {
        let now = i * interarrival;
        let backlog = free_at.saturating_sub(now);
        let depth = backlog.div_ceil(service);
        if config.max_queue_depth > 0 && depth >= config.max_queue_depth as u64 {
            shed += 1;
            continue;
        }
        let finish = free_at.max(now) + service;
        latency.record(finish - now);
        free_at = finish;
        admitted += 1;
    }
    let snapshot = latency.snapshot();
    SaturationReport {
        config: config.clone(),
        admitted,
        shed,
        p50_nanos: snapshot.quantile(0.50),
        p99_nanos: snapshot.quantile(0.99),
        max_nanos: snapshot.max,
    }
}

/// One sweep point of [`run_adaptive_convergence`].
#[derive(Debug, Clone)]
pub struct ConvergencePoint {
    /// Arrival spacing driven at the relay.
    pub interarrival: Duration,
    /// The `relay_adaptive_delay_nanos` gauge after the arrivals — what
    /// the live relay actually tuned to.
    pub tuned_delay_nanos: u64,
    /// The closed-form optimum for this interarrival — what it should
    /// tune to.
    pub expected_delay_nanos: u64,
}

/// Origin double for the convergence sweep: answers every (super-)batch
/// with one `Ok(Null)` per call.
struct NullOrigin;

impl NullOrigin {
    fn respond(request: &BatchRequest) -> BatchResponse {
        BatchResponse {
            session: None,
            slots: request
                .calls
                .iter()
                .map(|call| (call.seq, SlotOutcome::Ok(Value::Null)))
                .collect(),
            cursors: vec![],
            restarts: 0,
        }
    }
}

impl RequestHandler for NullOrigin {
    fn handle(&self, frame: Frame) -> Frame {
        match frame {
            Frame::BatchCall(call) => Frame::BatchReturn(NullOrigin::respond(&call.request)),
            Frame::SuperBatchCall(batches) => Frame::SuperBatchReturn(
                batches
                    .iter()
                    .map(|member| Ok(NullOrigin::respond(&member.request)))
                    .collect(),
            ),
            _ => Frame::Released,
        }
    }
}

fn noop_batch() -> Frame {
    Frame::BatchCall(
        BatchRequest {
            session: None,
            calls: vec![InvocationData {
                seq: CallSeq(0),
                target: Target::Remote(ObjectId(1)),
                method: "noop".into(),
                args: vec![],
                cursor: None,
                opens_cursor: false,
            }],
            policy: PolicySpec::Abort,
            keep_session: false,
        }
        .into(),
    )
}

/// Drives a fresh adaptive [`BatchRelay`] per sweep point with
/// `arrivals_per_point` batches spaced `interarrival` apart on a
/// [`VirtualClock`], and reports the tuned window against the closed
/// form. Constant spacing makes the EWMA exact — the gauge must land on
/// the optimum to the nanosecond, whatever the flusher's grouping did.
///
/// # Panics
///
/// Panics when a relayed batch fails; the in-process origin never does.
pub fn run_adaptive_convergence(
    adaptive: AdaptivePolicy,
    interarrivals: &[Duration],
    arrivals_per_point: usize,
) -> Vec<ConvergencePoint> {
    interarrivals
        .iter()
        .map(|&interarrival| {
            let upstream = Arc::new(InProcTransport::new(Arc::new(NullOrigin)));
            let clock = VirtualClock::new();
            let relay = BatchRelay::with_time_source(
                upstream,
                RelayPolicy::builder()
                    .max_coalesced_calls(1_000_000)
                    .adaptive(adaptive)
                    .build(),
                clock.clone(),
            );
            let stats = relay.stats();
            let mut workers = Vec::with_capacity(arrivals_per_point);
            for k in 0..arrivals_per_point {
                if k > 0 {
                    clock.advance(interarrival);
                }
                let relay = Arc::clone(&relay);
                workers.push(std::thread::spawn(move || relay.handle(noop_batch())));
                // The batch counter bumps at enqueue (before the worker
                // blocks on its reply), so this spin leaves the arrival
                // spacing entirely to the virtual clock.
                while stats.batches_relayed() < (k + 1) as u64 {
                    std::thread::yield_now();
                }
            }
            let tuned_delay_nanos = stats.adaptive_delay_nanos();
            // Flush stragglers so every worker joins: whatever the tuned
            // window, it cannot exceed the upper clamp.
            clock.advance(adaptive.max_delay + Duration::from_nanos(1));
            for worker in workers {
                match worker.join().expect("relay worker panicked") {
                    Frame::BatchReturn(_) => {}
                    other => panic!("expected a batch return, got {other:?}"),
                }
            }
            relay.shutdown();
            ConvergencePoint {
                interarrival,
                tuned_delay_nanos,
                expected_delay_nanos: adaptive.tuned_delay_nanos(interarrival.as_nanos() as f64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_counts_are_exact() {
        let report = run_admission_stress(&AdmissionConfig {
            offered: 12,
            max_connections: 5,
        })
        .unwrap();
        assert_eq!(report.admitted, 5);
        assert_eq!(report.shed, 7);
        assert_eq!(report.shed_replies_seen, 7);
        assert_eq!(report.accept_failures, 0);
    }

    #[test]
    fn admission_under_the_cap_sheds_nothing() {
        let report = run_admission_stress(&AdmissionConfig {
            offered: 3,
            max_connections: 8,
        })
        .unwrap();
        assert_eq!(report.admitted, 3);
        assert_eq!(report.shed, 0);
        assert_eq!(report.shed_replies_seen, 0);
    }

    #[test]
    fn bounded_queue_keeps_p99_at_the_bound_under_2x_saturation() {
        let service = Duration::from_micros(100);
        let bounded = run_saturation_model(&SaturationConfig {
            arrivals: 10_000,
            interarrival: service / 2,
            service,
            max_queue_depth: 64,
        });
        let unbounded = run_saturation_model(&SaturationConfig {
            arrivals: 10_000,
            interarrival: service / 2,
            service,
            max_queue_depth: 0,
        });
        // The unbounded queue diverges linearly; the bounded one sheds
        // half the offered load and keeps the tail at depth × service.
        assert_eq!(unbounded.shed, 0);
        assert!(unbounded.p99_nanos > 10 * bounded.p99_nanos);
        assert!(bounded.shed > 0);
        assert!(bounded.max_nanos <= 64 * service.as_nanos() as u64);
        // Offered load is conserved: every request was served or shed.
        assert_eq!(bounded.admitted + bounded.shed, 10_000);
        // Deterministic to the integer across runs.
        let again = run_saturation_model(&bounded.config);
        assert_eq!(again.shed, bounded.shed);
        assert_eq!(again.p99_nanos, bounded.p99_nanos);
    }

    #[test]
    fn adaptive_gauge_lands_on_the_closed_form() {
        let points = run_adaptive_convergence(
            AdaptivePolicy::default(),
            &[
                Duration::from_micros(100),
                Duration::from_micros(500),
                Duration::from_millis(2),
            ],
            8,
        );
        for point in points {
            assert_eq!(
                point.tuned_delay_nanos, point.expected_delay_nanos,
                "at interarrival {:?}",
                point.interarrival
            );
        }
    }
}
