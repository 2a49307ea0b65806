//! # brmi-transport
//!
//! Pluggable transports carrying [`Frame`]s between a BRMI client and server:
//!
//! * [`inproc`] — direct dispatch into a server handler, for unit tests;
//! * [`reactor`] — the one TCP server: an epoll event loop serving hundreds
//!   of concurrent connections from a fixed set of reactor threads
//!   (Linux-only);
//! * [`pool`] — the one blocking client: length-prefixed frames over a
//!   connection pool checking sockets out per round trip, so threads
//!   sharing one transport are not serialized;
//! * [`mux`] — the evented client: N concurrent callers multiplexed over
//!   *one* socket via request-id envelopes, writes coalesced into vectored
//!   syscall bursts (pairs with the reactor server);
//! * [`relay`] — the multi-tier edge node: coalesces batch frames from many
//!   downstream clients into upstream super-batches over any of the above;
//! * [`retry`] — reconnect-and-retry with capped exponential backoff for
//!   keyed (retry-safe) traffic, the one re-send loop, layered over any
//!   client above; unkeyed traffic keeps at-most-once;
//! * [`sim`] — the experimental testbed: real frames, simulated network cost
//!   charged to a [virtual clock](clock::VirtualClock) according to a
//!   [`NetworkProfile`];
//! * [`fault`] — failure injection (request or reply drops, deterministic
//!   seeded plans, delays) for testing error paths;
//! * [`slot`] — the fill-once reply cell through which the mux, relay and
//!   fetcher hand one round trip's outcome to a blocked caller.
//!
//! [`Frame`]: brmi_wire::protocol::Frame

// Unsafe code is denied crate-wide and allowed back in exactly one place:
// the raw epoll syscall bindings in `reactor::sys` (the container has no
// crates.io access, so there is no libc/mio to lean on).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fault;
pub mod fetcher;
pub(crate) mod framing;
pub mod inproc;
pub mod mux;
pub mod pool;
pub mod profile;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod relay;
pub mod retry;
pub mod sim;
pub mod slot;

use std::sync::Arc;

use brmi_obs::{Counter, MetricsSnapshot, Registry, Snapshot};
use brmi_wire::protocol::{Frame, FrameRef};
use brmi_wire::{RemoteError, Value};

pub use clock::{Clock, SleepClock, VirtualClock};
pub use profile::NetworkProfile;

/// A synchronous request/response channel to one server.
///
/// RMI semantics are synchronous, so one blocking round trip per request is
/// the right abstraction; BRMI's whole point is to need fewer of them.
pub trait Transport: Send + Sync {
    /// Sends a request frame and waits for the reply frame.
    ///
    /// # Errors
    ///
    /// Returns a [`RemoteError`] of kind `Transport` when the connection
    /// fails, or `Marshal` when frames cannot be (de)coded.
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError>;
}

impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        (**self).request(frame)
    }
}

/// The server side of a transport: turns request frames into reply frames.
///
/// Implemented by the RMI server; every transport ultimately feeds this.
pub trait RequestHandler: Send + Sync {
    /// Handles one request. Failures are reported in-band as
    /// [`Frame::Error`], so this method itself does not fail.
    fn handle(&self, frame: Frame) -> Frame;

    /// Handles one request decoded as a borrowed view — the zero-copy
    /// dispatch path. Transports decode incoming bytes as a [`FrameRef`]
    /// and call this, so `Str`/`Bytes` payloads are copied out of the
    /// frame only where the handler actually needs owned data.
    ///
    /// The default converts to an owned frame and delegates to
    /// [`RequestHandler::handle`]; the RMI server overrides it.
    fn handle_ref(&self, frame: FrameRef<'_>) -> Frame {
        self.handle(frame.into_owned())
    }
}

impl<T: RequestHandler + ?Sized> RequestHandler for Arc<T> {
    fn handle(&self, frame: Frame) -> Frame {
        (**self).handle(frame)
    }

    fn handle_ref(&self, frame: FrameRef<'_>) -> Frame {
        (**self).handle_ref(frame)
    }
}

/// Cumulative traffic counters, shared by transports that keep statistics.
///
/// Backed by [`brmi_obs`] counters since the observability migration: the
/// getter methods are thin shims over the metric cells, and
/// [`TransportStats::register_metrics`] attaches the same cells to a
/// [`Registry`] (family `transport_*`, labeled by tier) so one unified
/// snapshot sees every transport in a harness.
#[derive(Debug, Default)]
pub struct TransportStats {
    requests: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    remote_refs: Counter,
}

impl TransportStats {
    /// Creates zeroed counters.
    pub fn new() -> Arc<Self> {
        Arc::new(TransportStats::default())
    }

    /// Records one round trip of `sent`/`received` bytes.
    pub fn record(&self, sent: usize, received: usize) {
        self.requests.inc();
        self.bytes_sent.add(sent as u64);
        self.bytes_received.add(received as u64);
    }

    /// Records remote references observed crossing the wire (counted by
    /// transports that walk payloads, e.g. the simulated one).
    pub fn record_remote_refs(&self, refs: usize) {
        self.remote_refs.add(refs as u64);
    }

    /// Number of round trips so far.
    pub fn requests(&self) -> u64 {
        self.requests.value()
    }

    /// Total remote references marshalled so far (both directions; only
    /// counted by payload-walking transports).
    pub fn remote_refs(&self) -> u64 {
        self.remote_refs.value()
    }

    /// Total request bytes so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.value()
    }

    /// Total response bytes so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.value()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.requests.reset();
        self.bytes_sent.reset();
        self.bytes_received.reset();
        self.remote_refs.reset();
    }

    /// Registers these counters with `registry` under the `transport_*`
    /// families, labeled `tier` (e.g. `"pool"`, `"mux"`, `"sim"`), so a
    /// harness-wide snapshot distinguishes each transport's traffic.
    pub fn register_metrics(&self, registry: &Registry, tier: &str) {
        let labels: &[(&str, &str)] = &[("tier", tier)];
        registry.register_counter("transport_requests", labels, &self.requests);
        registry.register_counter("transport_bytes_sent", labels, &self.bytes_sent);
        registry.register_counter("transport_bytes_received", labels, &self.bytes_received);
        registry.register_counter("transport_remote_refs", labels, &self.remote_refs);
    }
}

impl Snapshot for TransportStats {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry, "transport");
        registry.snapshot()
    }
}

/// Counts the remote references carried by a frame, in both payload
/// directions. The simulated network charges a per-reference marshalling
/// cost (see [`NetworkProfile::per_remote_ref_cpu`]).
pub fn frame_remote_refs(frame: &Frame) -> usize {
    use brmi_wire::invocation::{Arg, BatchRequest, BatchResponse, SlotOutcome};
    fn outcome_refs(outcome: &SlotOutcome) -> usize {
        match outcome {
            SlotOutcome::Ok(v) => v.count_remote_refs(),
            _ => 0,
        }
    }
    fn request_refs(req: &BatchRequest) -> usize {
        req.calls
            .iter()
            .flat_map(|call| call.args.iter())
            .map(|arg| match arg {
                Arg::Value(v) => v.count_remote_refs(),
                _ => 0,
            })
            .sum()
    }
    fn response_refs(resp: &BatchResponse) -> usize {
        let slot_refs: usize = resp.slots.iter().map(|(_, o)| outcome_refs(o)).sum();
        let cursor_refs: usize = resp
            .cursors
            .iter()
            .flat_map(|c| c.rows.iter())
            .flat_map(|row| row.iter())
            .map(outcome_refs)
            .sum();
        slot_refs + cursor_refs
    }
    match frame {
        Frame::Call { args, .. } => args.iter().map(Value::count_remote_refs).sum(),
        Frame::Return(value) => value.count_remote_refs(),
        Frame::Error(_) | Frame::ReleaseSession(_) | Frame::Released => 0,
        // DGC ids identify leases, not marshalled stubs: no per-reference
        // marshalling cost.
        Frame::Dirty { .. } | Frame::Leased { .. } | Frame::Clean { .. } | Frame::Cleaned => 0,
        // Idempotency keys carry no stubs; only the payloads count.
        Frame::BatchCall(call) => request_refs(&call.request),
        Frame::BatchReturn(resp) => response_refs(resp),
        Frame::SuperBatchCall(members) => members.iter().map(|m| request_refs(&m.request)).sum(),
        Frame::SuperBatchReturn(replies) => replies
            .iter()
            .map(|reply| reply.as_ref().map_or(0, response_refs))
            .sum(),
        // The trace envelope is payload-neutral: only the inner frame's
        // references cost marshalling.
        Frame::Traced { inner, .. } => frame_remote_refs(inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_wire::invocation::{
        Arg, BatchRequest, BatchResponse, CallSeq, CursorResult, InvocationData, PolicySpec,
        SlotOutcome, Target,
    };
    use brmi_wire::ObjectId;

    #[test]
    fn stats_accumulate_and_reset() {
        let stats = TransportStats::new();
        stats.record(10, 20);
        stats.record(1, 2);
        assert_eq!(stats.requests(), 2);
        assert_eq!(stats.bytes_sent(), 11);
        assert_eq!(stats.bytes_received(), 22);
        stats.reset();
        assert_eq!(stats.requests(), 0);
        assert_eq!(stats.bytes_sent(), 0);
    }

    #[test]
    fn call_frame_ref_count() {
        let frame = Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "m".into(),
            args: vec![
                Value::RemoteRef(ObjectId(2)),
                Value::List(vec![Value::RemoteRef(ObjectId(3))]),
                Value::I32(5),
            ],
        };
        assert_eq!(frame_remote_refs(&frame), 2);
    }

    #[test]
    fn return_frame_ref_count() {
        assert_eq!(
            frame_remote_refs(&Frame::Return(Value::RemoteRef(ObjectId(9)))),
            1
        );
        assert_eq!(frame_remote_refs(&Frame::Return(Value::Null)), 0);
    }

    #[test]
    fn batch_frames_ref_count() {
        let req = Frame::BatchCall(
            BatchRequest {
                session: None,
                calls: vec![InvocationData {
                    seq: CallSeq(0),
                    target: Target::Remote(ObjectId(1)),
                    method: "m".into(),
                    args: vec![
                        Arg::Value(Value::RemoteRef(ObjectId(4))),
                        Arg::Result(CallSeq(0)),
                    ],
                    cursor: None,
                    opens_cursor: false,
                }],
                policy: PolicySpec::Abort,
                keep_session: false,
            }
            .into(),
        );
        assert_eq!(frame_remote_refs(&req), 1);

        let resp = Frame::BatchReturn(BatchResponse {
            session: None,
            slots: vec![(CallSeq(0), SlotOutcome::Ok(Value::RemoteRef(ObjectId(5))))],
            cursors: vec![CursorResult {
                cursor_seq: CallSeq(1),
                len: 1,
                members: vec![CallSeq(2)],
                rows: vec![vec![SlotOutcome::Ok(Value::RemoteRef(ObjectId(6)))]],
            }],
            restarts: 0,
        });
        assert_eq!(frame_remote_refs(&resp), 2);
    }

    #[test]
    fn control_frames_have_no_refs() {
        assert_eq!(frame_remote_refs(&Frame::Released), 0);
    }
}
