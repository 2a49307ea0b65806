//! The client runtime: connections and remote references.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use brmi_obs::Tracer;
use brmi_transport::Transport;
use brmi_wire::invocation::{BatchRequest, BatchResponse, SessionId};
use brmi_wire::protocol::{registry_methods, BatchCall, Frame, IdemKey};
use brmi_wire::{FromValue, ObjectId, RemoteError, RemoteErrorKind, Value};

/// Process-wide allocator for [`KeySource`] client ids, so every key source
/// in one process stamps distinct `(client_id, seq)` keys.
static CLIENT_IDS: AtomicU64 = AtomicU64::new(1);

/// The client half of retry-safe exactly-once visible semantics: mints
/// [`IdemKey`]s for outgoing requests and tracks the acknowledgement
/// watermark piggybacked on each of them.
///
/// One `KeySource` represents one logical client to the origin's reply
/// cache. It deliberately lives *outside* any socket: reconnects and
/// transport swaps keep the same `client_id`, which is what lets a re-sent
/// key match the cached reply.
#[derive(Debug)]
pub struct KeySource {
    client_id: u64,
    next_seq: AtomicU64,
    acks: Mutex<AckWindow>,
}

#[derive(Debug, Default)]
struct AckWindow {
    /// Every seq below this had its reply delivered (or abandoned).
    floor: u64,
    /// Delivered seqs at or above `floor`, awaiting contiguity.
    done: BTreeSet<u64>,
}

impl KeySource {
    /// Creates a key source with a fresh process-unique client id.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Arc<Self> {
        KeySource::with_client_id(CLIENT_IDS.fetch_add(1, Ordering::Relaxed))
    }

    /// Creates a key source with an explicit client id (tests; or an
    /// application-managed identity that must survive process restarts).
    pub fn with_client_id(client_id: u64) -> Arc<Self> {
        Arc::new(KeySource {
            client_id,
            next_seq: AtomicU64::new(0),
            acks: Mutex::new(AckWindow::default()),
        })
    }

    /// This source's client identity.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Mints the key for one outgoing request, carrying the current ack
    /// watermark.
    pub fn next(&self) -> IdemKey {
        // Read the watermark first: a key must never ack its own seq.
        let acked = self.acks.lock().expect("key source poisoned").floor;
        IdemKey {
            client_id: self.client_id,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            acked,
        }
    }

    /// Marks one seq as delivered (its reply reached the caller, or the
    /// transport gave up and the caller saw the failure — either way the
    /// cached reply will never be asked for again). The watermark advances
    /// over every contiguous delivered seq and rides out on later keys.
    pub fn acknowledge(&self, seq: u64) {
        let mut acks = self.acks.lock().expect("key source poisoned");
        if seq < acks.floor {
            return;
        }
        acks.done.insert(seq);
        let mut floor = acks.floor;
        while acks.done.remove(&floor) {
            floor += 1;
        }
        acks.floor = floor;
    }

    /// The current watermark: every seq below it has been acknowledged.
    pub fn acked_floor(&self) -> u64 {
        self.acks.lock().expect("key source poisoned").floor
    }
}

/// A client connection to one server over any [`Transport`].
///
/// Cheap to clone; clones share the underlying transport.
///
/// A connection runs in one of two delivery modes. Plain connections
/// ([`Connection::new`]) keep RMI's at-most-once contract: a transport
/// failure after a request was written means the call's fate is unknown.
/// Keyed connections ([`Connection::new_keyed`]) stamp every call and
/// batch segment with an [`IdemKey`], so retry-capable transports may
/// re-send them after a disconnect and the origin's reply cache
/// guarantees the effect still happens at most once — exactly-once as
/// observed by the caller.
#[derive(Clone)]
pub struct Connection {
    transport: Arc<dyn Transport>,
    keys: Option<Arc<KeySource>>,
    tracer: Option<Arc<Tracer>>,
}

impl Connection {
    /// Wraps a transport in at-most-once mode (no idempotency keys).
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        Connection {
            transport,
            keys: None,
            tracer: None,
        }
    }

    /// Wraps a transport in keyed mode with a fresh [`KeySource`].
    pub fn new_keyed(transport: Arc<dyn Transport>) -> Self {
        Connection::with_key_source(transport, KeySource::new())
    }

    /// Wraps a transport in keyed mode with an explicit [`KeySource`]
    /// (shared across connections that are the same logical client).
    pub fn with_key_source(transport: Arc<dyn Transport>, keys: Arc<KeySource>) -> Self {
        Connection {
            transport,
            keys: Some(keys),
            tracer: None,
        }
    }

    /// Returns this connection with a tracer installed: every flush then
    /// runs under a fresh root trace — the batch frame ships inside a
    /// [`Frame::Traced`] envelope, so downstream tiers (relay, origin)
    /// chain child spans off it, and the whole round trip is recorded as
    /// a `client.flush` span against the tracer's sink.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The tracer, when tracing is enabled on this connection.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The key source, when this connection is keyed.
    pub fn key_source(&self) -> Option<&Arc<KeySource>> {
        self.keys.as_ref()
    }

    /// Sends the request `build` makes of this connection's next
    /// idempotency key (`None` on an unkeyed connection). A key's seq is
    /// acknowledged as soon as the round trip resolves — on success, on an
    /// in-band error (the error IS the delivered reply), and on final
    /// transport failure (the transport already gave up retrying; nobody
    /// will ask for the cached reply again, so holding it would only stall
    /// the watermark).
    fn request(&self, build: impl FnOnce(Option<IdemKey>) -> Frame) -> Result<Frame, RemoteError> {
        let Some(keys) = &self.keys else {
            return self.transport.request(build(None));
        };
        let key = keys.next();
        let result = self.transport.request(build(Some(key)));
        keys.acknowledge(key.seq);
        result
    }

    /// Invokes `method` on the exported object `target` — one round trip.
    ///
    /// # Errors
    ///
    /// Transport failures, marshalling failures, and any error the remote
    /// method raises.
    pub fn call(
        &self,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RemoteError> {
        let reply = self.request(|key| Frame::Call {
            key,
            target,
            method: method.to_owned(),
            args,
        })?;
        match reply {
            Frame::Return(value) => Ok(value),
            Frame::Error(env) => Err(RemoteError::from(&env)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Ships a recorded batch to the server — also one round trip.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures. Per-call outcomes are inside the
    /// response; this only fails when the batch as a whole could not run.
    pub fn invoke_batch(&self, request: BatchRequest) -> Result<BatchResponse, RemoteError> {
        // One root span per flush: the envelope context rides the batch
        // frame so downstream tiers chain children off it, and the whole
        // round trip is recorded as `client.flush` once the reply lands.
        let trace = self.tracer.as_ref().map(|tracer| {
            let ctx = tracer.root();
            (tracer, ctx, tracer.now())
        });
        let ctx = trace.as_ref().map(|(_, ctx, _)| *ctx);
        let reply = self
            .request(|key| Frame::BatchCall(BatchCall { key, request }).with_trace(ctx))?
            .split_trace()
            .1;
        if let Some((tracer, ctx, start)) = trace {
            tracer.record(ctx, "client.flush", start, tracer.now());
        }
        match reply {
            Frame::BatchReturn(response) => Ok(response),
            Frame::Error(env) => Err(RemoteError::from(&env)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Releases a chained-batch session on the server.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn release_session(&self, session: SessionId) -> Result<(), RemoteError> {
        let reply = self.transport.request(Frame::ReleaseSession(session))?;
        match reply {
            Frame::Released => Ok(()),
            Frame::Error(env) => Err(RemoteError::from(&env)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Renews the distributed-GC leases of `ids` (Java RMI's
    /// `DGC.dirty`). Returns the lease duration the server granted.
    ///
    /// # Errors
    ///
    /// A protocol error when the server has no DGC enabled, plus
    /// transport failures.
    pub fn dirty(
        &self,
        ids: &[brmi_wire::ObjectId],
        lease: std::time::Duration,
    ) -> Result<std::time::Duration, RemoteError> {
        let reply = self.transport.request(Frame::Dirty {
            ids: ids.to_vec(),
            lease_millis: lease.as_millis() as u64,
        })?;
        match reply {
            Frame::Leased { lease_millis } => Ok(std::time::Duration::from_millis(lease_millis)),
            Frame::Error(env) => Err(RemoteError::from(&env)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Releases the distributed-GC leases of `ids` (Java RMI's
    /// `DGC.clean`); the server unexports them.
    ///
    /// # Errors
    ///
    /// A protocol error when the server has no DGC enabled, plus
    /// transport failures.
    pub fn clean(&self, ids: &[brmi_wire::ObjectId]) -> Result<(), RemoteError> {
        let reply = self.transport.request(Frame::Clean { ids: ids.to_vec() })?;
        match reply {
            Frame::Cleaned => Ok(()),
            Frame::Error(env) => Err(RemoteError::from(&env)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Resolves a name in the server's registry to a remote reference.
    ///
    /// # Errors
    ///
    /// `NotBound` when the name is unknown, plus transport failures.
    pub fn lookup(&self, name: &str) -> Result<RemoteRef, RemoteError> {
        let value = self.call(
            ObjectId::REGISTRY,
            registry_methods::LOOKUP,
            vec![Value::Str(name.to_owned())],
        )?;
        match value {
            Value::RemoteRef(id) => Ok(RemoteRef {
                conn: self.clone(),
                id,
            }),
            other => Err(RemoteError::marshal(format!(
                "registry lookup returned {}",
                other.type_name()
            ))),
        }
    }

    /// Binds `reference` under `name` in the server's registry.
    ///
    /// # Errors
    ///
    /// `AlreadyBound` when the name is taken, plus transport failures.
    pub fn bind(&self, name: &str, reference: &RemoteRef) -> Result<(), RemoteError> {
        self.call(
            ObjectId::REGISTRY,
            registry_methods::BIND,
            vec![
                Value::Str(name.to_owned()),
                Value::RemoteRef(reference.id()),
            ],
        )?;
        Ok(())
    }

    /// Binds or replaces `name` in the server's registry.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn rebind(&self, name: &str, reference: &RemoteRef) -> Result<(), RemoteError> {
        self.call(
            ObjectId::REGISTRY,
            registry_methods::REBIND,
            vec![
                Value::Str(name.to_owned()),
                Value::RemoteRef(reference.id()),
            ],
        )?;
        Ok(())
    }

    /// Removes `name` from the server's registry.
    ///
    /// # Errors
    ///
    /// `NotBound` when the name is unknown, plus transport failures.
    pub fn unbind(&self, name: &str) -> Result<(), RemoteError> {
        self.call(
            ObjectId::REGISTRY,
            registry_methods::UNBIND,
            vec![Value::Str(name.to_owned())],
        )?;
        Ok(())
    }

    /// Lists all names bound in the server's registry.
    ///
    /// # Errors
    ///
    /// Transport and marshalling failures.
    pub fn registry_names(&self) -> Result<Vec<String>, RemoteError> {
        let value = self.call(ObjectId::REGISTRY, registry_methods::LIST, vec![])?;
        Vec::<String>::from_value(value)
    }

    /// A reference to an arbitrary object id on this connection. Useful for
    /// reconstructing references received inside values.
    pub fn reference(&self, id: ObjectId) -> RemoteRef {
        RemoteRef {
            conn: self.clone(),
            id,
        }
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

fn unexpected_reply(frame: &Frame) -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::Protocol,
        format!("unexpected reply frame: {}", frame.kind_name()),
    )
}

/// A client-side reference to one exported remote object — the analogue of
/// an RMI stub's inner remote reference. Typed stubs generated by
/// `remote_interface!` wrap this.
#[derive(Clone, Debug)]
pub struct RemoteRef {
    conn: Connection,
    id: ObjectId,
}

impl RemoteRef {
    /// Builds a reference from a connection and object id.
    pub fn from_parts(conn: Connection, id: ObjectId) -> Self {
        RemoteRef { conn, id }
    }

    /// The referenced object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The connection this reference lives on.
    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    /// Invokes a method on the referenced object.
    ///
    /// # Errors
    ///
    /// Transport failures and any error the remote method raises.
    pub fn invoke(&self, method: &str, args: Vec<Value>) -> Result<Value, RemoteError> {
        self.conn.call(self.id, method, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_transport::sim::SimTransport;
    use brmi_transport::RequestHandler;

    /// Minimal handler: replies Return(I32(7)) to calls of method "seven",
    /// errors otherwise, and always echoes Released to release frames.
    struct SevenHandler;

    impl RequestHandler for SevenHandler {
        fn handle(&self, frame: Frame) -> Frame {
            match frame {
                Frame::Call {
                    key: None, method, ..
                } if method == "seven" => Frame::Return(Value::I32(7)),
                Frame::Call { key: None, .. } => {
                    Frame::Error(brmi_wire::invocation::ErrorEnvelope {
                        kind: "no-such-method".into(),
                        exception: "no-such-method".into(),
                        message: "only seven".into(),
                    })
                }
                Frame::ReleaseSession(_) => Frame::Released,
                // Deliberately wrong reply to exercise the protocol check.
                Frame::BatchCall(_) => Frame::Return(Value::Null),
                _ => Frame::Released,
            }
        }
    }

    fn connection() -> Connection {
        Connection::new(Arc::new(SimTransport::in_process(Arc::new(SevenHandler))))
    }

    #[test]
    fn call_unwraps_return_value() {
        let conn = connection();
        assert_eq!(
            conn.call(ObjectId(1), "seven", vec![]).unwrap(),
            Value::I32(7)
        );
    }

    #[test]
    fn call_surfaces_remote_error() {
        let conn = connection();
        let err = conn.call(ObjectId(1), "other", vec![]).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::NoSuchMethod);
    }

    #[test]
    fn unexpected_reply_is_protocol_error() {
        let conn = connection();
        let err = conn
            .invoke_batch(BatchRequest {
                session: None,
                calls: vec![],
                policy: Default::default(),
                keep_session: false,
            })
            .unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::Protocol);
    }

    #[test]
    fn release_session_round_trips() {
        let conn = connection();
        conn.release_session(SessionId(1)).unwrap();
    }

    #[test]
    fn key_source_mints_monotonic_keys_with_watermark() {
        let keys = KeySource::with_client_id(77);
        let a = keys.next();
        let b = keys.next();
        assert_eq!((a.client_id, a.seq, a.acked), (77, 0, 0));
        assert_eq!((b.client_id, b.seq, b.acked), (77, 1, 0));
        // Out-of-order delivery: acking 1 alone moves nothing.
        keys.acknowledge(1);
        assert_eq!(keys.acked_floor(), 0);
        // Acking 0 makes 0..=1 contiguous; the floor jumps past both.
        keys.acknowledge(0);
        assert_eq!(keys.acked_floor(), 2);
        assert_eq!(keys.next().acked, 2);
        // Re-acking below the floor is a no-op.
        keys.acknowledge(0);
        assert_eq!(keys.acked_floor(), 2);
    }

    #[test]
    fn key_sources_get_distinct_client_ids() {
        assert_ne!(KeySource::new().client_id(), KeySource::new().client_id());
    }

    /// Records the keyed frames it sees and answers calls like
    /// `SevenHandler`.
    struct KeyRecorder {
        seen: Mutex<Vec<IdemKey>>,
    }

    impl RequestHandler for KeyRecorder {
        fn handle(&self, frame: Frame) -> Frame {
            match frame {
                Frame::Call { key: Some(key), .. } => {
                    self.seen.lock().unwrap().push(key);
                    Frame::Return(Value::I32(7))
                }
                Frame::BatchCall(BatchCall { key: Some(key), .. }) => {
                    self.seen.lock().unwrap().push(key);
                    Frame::BatchReturn(Default::default())
                }
                _ => Frame::Error(brmi_wire::invocation::ErrorEnvelope {
                    kind: "protocol".into(),
                    exception: "protocol".into(),
                    message: "expected a keyed frame".into(),
                }),
            }
        }
    }

    #[test]
    fn keyed_connection_stamps_calls_and_segments() {
        let recorder = Arc::new(KeyRecorder {
            seen: Mutex::new(Vec::new()),
        });
        let transport = Arc::new(SimTransport::in_process(
            Arc::clone(&recorder) as Arc<dyn RequestHandler>
        ));
        let conn = Connection::with_key_source(transport, KeySource::with_client_id(9));
        assert_eq!(
            conn.call(ObjectId(1), "seven", vec![]).unwrap(),
            Value::I32(7)
        );
        conn.invoke_batch(BatchRequest {
            session: None,
            calls: vec![],
            policy: Default::default(),
            keep_session: false,
        })
        .unwrap();
        let seen = recorder.seen.lock().unwrap().clone();
        assert_eq!(seen.len(), 2);
        assert_eq!((seen[0].client_id, seen[0].seq, seen[0].acked), (9, 0, 0));
        // The first reply was delivered before the batch went out, so the
        // batch's key already acks seq 0.
        assert_eq!((seen[1].client_id, seen[1].seq, seen[1].acked), (9, 1, 1));
        assert_eq!(conn.key_source().unwrap().acked_floor(), 2);
    }

    #[test]
    fn plain_connection_stays_unkeyed() {
        let conn = connection();
        assert!(conn.key_source().is_none());
        // SevenHandler answers only unkeyed `Frame::Call`s — a keyed one
        // would fall through to its catch-all arm.
        assert_eq!(
            conn.call(ObjectId(1), "seven", vec![]).unwrap(),
            Value::I32(7)
        );
    }

    #[test]
    fn remote_ref_carries_id_and_connection() {
        let conn = connection();
        let reference = conn.reference(ObjectId(42));
        assert_eq!(reference.id(), ObjectId(42));
        assert_eq!(reference.invoke("seven", vec![]).unwrap(), Value::I32(7));
        let cloned = reference.clone();
        assert_eq!(cloned.id(), ObjectId(42));
    }
}
