//! In-process transport: dispatches requests straight into a handler.
//!
//! Used by unit tests and as the inner hop of the [simulated
//! transport](crate::sim). Frames are still round-tripped through the codec
//! so that marshalling bugs cannot hide behind shared memory.

use std::sync::Arc;

use brmi_wire::codec::WireCodec;
use brmi_wire::protocol::{Frame, FrameRef};
use brmi_wire::RemoteError;
use parking_lot::Mutex;

use crate::{RequestHandler, Transport, TransportStats};

/// A transport that calls a [`RequestHandler`] in the same process.
pub struct InProcTransport {
    handler: Arc<dyn RequestHandler>,
    stats: Arc<TransportStats>,
    /// Reused (request, reply) frame buffers. Taken out of the mutex for
    /// the duration of a round trip so a re-entrant or concurrent request
    /// simply allocates fresh buffers instead of blocking.
    scratch: Mutex<(Vec<u8>, Vec<u8>)>,
}

impl InProcTransport {
    /// Creates a transport that encodes and decodes every frame, exactly as
    /// a networked transport would.
    pub fn new(handler: Arc<dyn RequestHandler>) -> Self {
        InProcTransport {
            handler,
            stats: TransportStats::new(),
            scratch: Mutex::new(Default::default()),
        }
    }

    /// Traffic counters for this transport.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport").finish_non_exhaustive()
    }
}

impl Transport for InProcTransport {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let (mut request_buf, mut reply_buf) = std::mem::take(&mut *self.scratch.lock());
        frame.encode_into(&mut request_buf);
        let result = (|| {
            let decoded = FrameRef::from_wire_bytes(&request_buf)?;
            let reply = self.handler.handle_ref(decoded);
            reply.encode_into(&mut reply_buf);
            self.stats.record(request_buf.len(), reply_buf.len());
            Frame::from_wire_bytes(&reply_buf)
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

    /// Echoes call arguments back as a list.
    struct EchoHandler;

    impl RequestHandler for EchoHandler {
        fn handle(&self, frame: Frame) -> Frame {
            match frame {
                Frame::Call { args, .. } => Frame::Return(Value::List(args)),
                other => Frame::Error(brmi_wire::invocation::ErrorEnvelope {
                    kind: "protocol".into(),
                    exception: "protocol".into(),
                    message: format!("unexpected {}", other.kind_name()),
                }),
            }
        }
    }

    #[test]
    fn round_trips_through_codec() {
        let transport = InProcTransport::new(Arc::new(EchoHandler));
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
}
