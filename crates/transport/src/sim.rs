//! The simulated network: real middleware, virtual time.
//!
//! [`SimTransport`] executes requests against a real in-process server but
//! charges a [`Clock`] for the network and marshalling costs a physical
//! deployment would pay, as parameterized by a [`NetworkProfile`]. With a
//! [`VirtualClock`] an entire latency-bound
//! benchmark sweep finishes in microseconds of wall time; with a
//! [`SleepClock`](crate::clock::SleepClock) the delays are real.
//!
//! The charged cost is computed from the *actual encoded frames*: byte
//! counts come from the real codec and remote-reference counts from walking
//! the real payloads, so the simulation cannot drift from the
//! implementation.
//!
//! [`SimTransport::in_process`] is the same link with the
//! [zero profile](NetworkProfile::zero): the in-process transport of unit
//! tests, examples and in-process rigs. Frames are still round-tripped
//! through the codec so that marshalling bugs cannot hide behind shared
//! memory.

use std::sync::Arc;

use brmi_wire::codec::{IntWidth, WireCodec};
use brmi_wire::protocol::{Frame, FrameRef};
use brmi_wire::RemoteError;
use parking_lot::Mutex;

use crate::clock::{Clock, VirtualClock};
use crate::profile::NetworkProfile;
use crate::{frame_remote_refs, RequestHandler, Transport, TransportStats};

/// A transport that charges simulated network time per round trip.
pub struct SimTransport {
    handler: Arc<dyn RequestHandler>,
    profile: NetworkProfile,
    clock: Arc<dyn Clock>,
    stats: Arc<TransportStats>,
    int_width: IntWidth,
    /// Reused (request, reply) frame buffers. Taken out of the mutex for
    /// the duration of a round trip so a re-entrant or concurrent request
    /// simply allocates fresh buffers instead of blocking.
    scratch: Mutex<(Vec<u8>, Vec<u8>)>,
}

impl SimTransport {
    /// Creates a simulated link to `handler` with the given cost `profile`,
    /// charging time to `clock`.
    pub fn new(
        handler: Arc<dyn RequestHandler>,
        profile: NetworkProfile,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self::with_int_width(handler, profile, clock, IntWidth::Varint)
    }

    /// An in-process link to `handler` that charges nothing: the
    /// [zero profile](NetworkProfile::zero) on a clock of its own. Every
    /// frame is still encoded, decoded and counted, exactly as a networked
    /// transport would.
    pub fn in_process(handler: Arc<dyn RequestHandler>) -> Self {
        Self::new(handler, NetworkProfile::zero(), VirtualClock::new())
    }

    /// As [`SimTransport::new`], but encoding wire integers at the given
    /// width — the codec ablation (`ablation_codec` in `brmi-bench`'s
    /// figures): fixed-width ints model
    /// Java-serialization-style encodings, and the extra bytes are
    /// charged as real transmission time.
    pub fn with_int_width(
        handler: Arc<dyn RequestHandler>,
        profile: NetworkProfile,
        clock: Arc<dyn Clock>,
        int_width: IntWidth,
    ) -> Self {
        SimTransport {
            handler,
            profile,
            clock,
            stats: TransportStats::new(),
            int_width,
            scratch: Mutex::new(Default::default()),
        }
    }

    /// Traffic counters for this transport.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    /// The profile this transport charges by.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("profile", &self.profile.name)
            .finish_non_exhaustive()
    }
}

impl Transport for SimTransport {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let (mut request_buf, mut reply_buf) = std::mem::take(&mut *self.scratch.lock());
        frame.encode_into_with(&mut request_buf, self.int_width);
        let request_refs = frame_remote_refs(&frame);

        let result = (|| {
            let decoded = FrameRef::from_wire_bytes_with(&request_buf, self.int_width)?;
            let reply = self.handler.handle_ref(decoded);

            reply.encode_into_with(&mut reply_buf, self.int_width);
            let reply_refs = frame_remote_refs(&reply);
            self.stats.record(request_buf.len(), reply_buf.len());
            self.stats.record_remote_refs(request_refs + reply_refs);
            let cost = self.profile.call_cost(
                request_buf.len(),
                reply_buf.len(),
                request_refs + reply_refs,
            );
            self.clock.advance(cost);
            Frame::from_wire_bytes_with(&reply_buf, self.int_width)
        })();
        *self.scratch.lock() = (request_buf, reply_buf);
        Ok(result?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_wire::value::Value;
    use brmi_wire::ObjectId;
    use std::time::Duration;

    struct NullHandler {
        reply: Frame,
    }

    impl RequestHandler for NullHandler {
        fn handle(&self, _frame: Frame) -> Frame {
            self.reply.clone()
        }
    }

    fn call_frame() -> Frame {
        Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "noop".into(),
            args: vec![],
        }
    }

    #[test]
    fn each_request_charges_at_least_one_rtt() {
        let clock = VirtualClock::new();
        let transport = SimTransport::new(
            Arc::new(NullHandler {
                reply: Frame::Return(Value::Null),
            }),
            NetworkProfile::lan_1gbps(),
            clock.clone(),
        );
        for _ in 0..5 {
            transport.request(call_frame()).unwrap();
        }
        assert!(clock.elapsed() >= 5 * NetworkProfile::lan_1gbps().rtt);
        assert_eq!(transport.stats().requests(), 5);
    }

    #[test]
    fn remote_refs_in_reply_are_charged() {
        let profile = NetworkProfile::lan_1gbps();
        let run = |reply: Frame| {
            let clock = VirtualClock::new();
            let transport = SimTransport::new(
                Arc::new(NullHandler { reply }),
                profile.clone(),
                clock.clone(),
            );
            transport.request(call_frame()).unwrap();
            clock.elapsed()
        };
        let plain = run(Frame::Return(Value::I64(1)));
        let with_ref = run(Frame::Return(Value::RemoteRef(ObjectId(9))));
        let delta = with_ref - plain;
        // The delta is the per-ref cost plus a negligible size difference.
        assert!(delta >= profile.per_remote_ref_cpu);
        assert!(delta < profile.per_remote_ref_cpu + Duration::from_micros(10));
    }

    #[test]
    fn zero_profile_charges_nothing() {
        let clock = VirtualClock::new();
        let transport = SimTransport::new(
            Arc::new(NullHandler {
                reply: Frame::Return(Value::Null),
            }),
            NetworkProfile::zero(),
            clock.clone(),
        );
        transport.request(call_frame()).unwrap();
        assert_eq!(clock.elapsed(), Duration::ZERO);
    }

    /// Echoes call arguments back as a list.
    struct EchoHandler;

    impl RequestHandler for EchoHandler {
        fn handle(&self, frame: Frame) -> Frame {
            match frame {
                Frame::Call { args, .. } => Frame::Return(Value::List(args)),
                other => panic!("unexpected {}", other.kind_name()),
            }
        }
    }

    #[test]
    fn in_process_round_trips_through_codec() {
        let transport = SimTransport::in_process(Arc::new(EchoHandler));
        let reply = transport
            .request(Frame::Call {
                key: None,
                target: ObjectId(1),
                method: "echo".into(),
                args: vec![Value::I32(7), Value::Str("x".into())],
            })
            .unwrap();
        assert_eq!(
            reply,
            Frame::Return(Value::List(vec![Value::I32(7), Value::Str("x".into())]))
        );
        assert_eq!(transport.stats().requests(), 1);
        assert!(transport.stats().bytes_sent() > 0);
    }

    #[test]
    fn payload_bytes_increase_cost() {
        let profile = NetworkProfile::wireless_54mbps();
        let run = |reply: Frame| {
            let clock = VirtualClock::new();
            let transport = SimTransport::new(
                Arc::new(NullHandler { reply }),
                profile.clone(),
                clock.clone(),
            );
            transport.request(call_frame()).unwrap();
            clock.elapsed()
        };
        let small = run(Frame::Return(Value::Bytes(vec![0; 16])));
        let large = run(Frame::Return(Value::Bytes(vec![0; 100_000])));
        assert!(large > small + Duration::from_millis(10));
    }
}
