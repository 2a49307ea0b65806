//! Multiplexed evented client: N concurrent callers, one socket.
//!
//! [`TcpPool`](crate::pool::TcpPool) gives N concurrent callers N sockets
//! — one checkout, one kernel socket and one request/reply exchange each.
//! [`MuxClient`] collapses that to **one** socket shared by every caller:
//! each request travels in a correlation envelope (the length prefix's
//! high bit plus an 8-byte request id — see [`crate::reactor`], which
//! echoes the id on the reply), so replies can be demultiplexed to the
//! right caller no matter how they interleave on the wire.
//!
//! ```text
//!   caller ──call──┐                             ┌──────────────────┐
//!   caller ──call──┤  pending queue   one socket │ reactor server   │
//!   caller ──call──┼─▶ (coalesced  ═════════════▶│ (worker pool for │
//!   caller ──call──┘   writev bursts)            │ blocking work)   │
//!        ▲                                       └────────┬─────────┘
//!        └───── reader thread demuxes replies by id ──────┘
//! ```
//!
//! # Write path
//!
//! Callers never write the socket directly. A request is encoded into its
//! envelope and pushed onto a pending queue; the first caller to find no
//! writer active becomes the *leader* and drains the queue — every frame
//! pushed by then, its own and its peers', leaves in a single
//! `write_vectored` syscall (≈1 syscall per burst instead of the blocking
//! client's historical 2 per frame). [`MuxClient::call_burst`] makes the
//! coalescing explicit: a caller with several calls ready ships them as
//! exactly one vectored write and gets one [`MuxPending`] per call back.
//!
//! # Read path
//!
//! One reader thread owns the receive side: it reads envelopes, decodes
//! the reply frame and delivers it to the per-call slot registered under
//! the request id — a [`OneShot`] the caller blocks on and moves the
//! reply out of. A caller blocks only on its own slot — slow replies to
//! other callers never serialize it.
//!
//! # Failure semantics
//!
//! A write error, read error, protocol violation or server disconnect
//! kills the client: every in-flight call fails with a transport error and
//! every later call fails fast. The `MuxClient` itself never replays
//! anything — after a request hits the wire the server may have executed
//! it, and replaying a non-idempotent call would double-apply it (the same
//! contract as [`TcpPool`](crate::pool::TcpPool)). What happens next
//! depends on the traffic's delivery mode:
//!
//! * **At-most-once** (plain calls and batches): reconnection is the
//!   application's decision, made with full knowledge that in-flight calls
//!   were lost. With method metadata attached
//!   ([`MuxClient::connect_with_meta`]) each failure names the lost method,
//!   and declared read-only calls carry [`RETRY_SAFE_EXCEPTION`] so the
//!   application knows which losses it may retry by hand. The label is
//!   derived from the request inside any trace envelope, and covers plain
//!   calls, batches and relay super-batches alike.
//! * **Retry-safe exactly-once visible** (requests carrying an
//!   idempotency key, [`Frame::is_retry_safe`]): wrap the client in a
//!   [`RetryTransport`](crate::retry::RetryTransport) whose connect
//!   factory dials a fresh `MuxClient`. A dead client is then replaced
//!   transparently and the keyed frame re-sent verbatim — safe even when
//!   the original executed and only its reply was lost, because the
//!   origin's reply cache answers the re-sent key with the recorded reply
//!   instead of executing again.
//!
//! The server side must understand the correlation envelope; the crate's
//! one TCP server, the [`reactor`](crate::reactor), does (pair it with
//! [`ReactorConfig::dispatch_workers`](crate::reactor::ReactorConfig) when
//! handlers block).

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use brmi_obs::{Counter, MetricsSnapshot, Registry, Snapshot};
use brmi_wire::codec::WireCodec;
use brmi_wire::protocol::Frame;
use brmi_wire::{MethodRegistry, RemoteError};

use crate::framing::{
    read_body_chunked, trim_buf, write_all_vectored, MAX_FRAME, MUX_FLAG, MUX_ID_LEN,
};
use crate::slot::OneShot;
use crate::{Pending, Transport, TransportStats};

/// Exception name carried by disconnect errors whose in-flight request may
/// be retried on a fresh connection without risk of double execution:
/// either every call involved was a declared `#[read_only]` method
/// (re-executing a read cannot double-apply anything; requires the client
/// to be built with [`MuxClient::connect_with_meta`]), or the frame
/// carried an idempotency key (the origin's reply cache deduplicates a
/// re-send). Unclassified write calls fail with the plain `"transport"`
/// exception instead.
pub const RETRY_SAFE_EXCEPTION: &str = "transport-retry-safe";

/// What a call slot knows about the request it is waiting on, so a
/// connection failure can say *which* method was lost and whether retrying
/// it is safe.
#[derive(Debug, Clone)]
struct CallLabel {
    /// The method name (for batches: the first method plus a count).
    method: String,
    /// Retrying this request on a fresh connection cannot double-apply:
    /// either every call involved is a declared read, or the frame carries
    /// an idempotency key the origin deduplicates — see
    /// [`RETRY_SAFE_EXCEPTION`].
    retry_safe: bool,
}

impl CallLabel {
    /// Derives a label from a request frame, looking through its trace
    /// envelope. Keyed requests are retry-safe by construction
    /// ([`Frame::is_retry_safe`]); an unkeyed one is only when every call
    /// in it is a declared read, which requires a method registry —
    /// without one every call is conservatively a write.
    fn of(frame: &Frame, registry: Option<&MethodRegistry>) -> Option<CallLabel> {
        let keyed = frame.is_retry_safe();
        let safe = |method: &str| keyed || registry.is_some_and(|r| r.is_read_only(method));
        let batch_method = |request: &brmi_wire::invocation::BatchRequest| {
            let first = request.calls.first()?;
            Some(if request.calls.len() == 1 {
                first.method.to_string()
            } else {
                format!("{} (+{} more)", first.method, request.calls.len() - 1)
            })
        };
        let (method, retry_safe) = match frame.bare() {
            Frame::Call { method, .. } => (method.clone(), safe(method)),
            Frame::BatchCall(call) => (
                batch_method(&call.request)?,
                call.request.calls.iter().all(|c| safe(&c.method)),
            ),
            Frame::SuperBatchCall(members) => (
                format!(
                    "{} (super-batch of {})",
                    batch_method(&members.first()?.request)?,
                    members.len()
                ),
                members
                    .iter()
                    .flat_map(|member| &member.request.calls)
                    .all(|c| safe(&c.method)),
            ),
            _ => return None,
        };
        Some(CallLabel { method, retry_safe })
    }
}

/// Hand-off cell between the reader thread and one blocked caller.
struct CallSlot {
    /// Request payload bytes, for byte accounting at delivery time.
    sent: usize,
    /// Which method this slot awaits, when the frame named one.
    label: Option<CallLabel>,
    reply: OneShot<Result<Frame, RemoteError>>,
}

/// A reply that has not arrived yet; claim it with [`MuxPending::wait`].
/// Dropping it abandons the call (the reply is discarded on arrival).
pub struct MuxPending {
    slot: Arc<CallSlot>,
}

impl MuxPending {
    /// Blocks until the reply arrives (or the connection dies).
    ///
    /// # Errors
    ///
    /// A transport-kind [`RemoteError`] when the connection failed with
    /// this call in flight — the call may or may not have executed
    /// (at-most-once: it is never replayed).
    pub fn wait(self) -> Result<Frame, RemoteError> {
        self.slot.reply.take()
    }
}

impl std::fmt::Debug for MuxPending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxPending").finish_non_exhaustive()
    }
}

/// One encoded request ready for the wire: the fixed correlation header
/// plus the frame body, written as two slices of one vectored write — the
/// body is encoded exactly once and never copied into a combined buffer.
struct Envelope {
    header: [u8; 4 + MUX_ID_LEN],
    body: Vec<u8>,
}

impl Envelope {
    /// Flattens envelopes into the slice list one vectored write takes.
    fn slices(envelopes: &[Envelope]) -> Vec<&[u8]> {
        let mut slices = Vec::with_capacity(envelopes.len() * 2);
        for envelope in envelopes {
            slices.push(&envelope.header[..]);
            slices.push(envelope.body.as_slice());
        }
        slices
    }
}

struct SendQueue {
    pending: Vec<Envelope>,
    /// Whether some caller is currently the leader draining the queue.
    writer_active: bool,
}

struct MuxShared {
    stream: TcpStream,
    peer: SocketAddr,
    /// Serializes actual socket writes (leader drains and explicit bursts).
    io: Mutex<()>,
    queue: Mutex<SendQueue>,
    /// In-flight calls by request id.
    calls: Mutex<HashMap<u64, Arc<CallSlot>>>,
    next_id: AtomicU64,
    /// Once set, the connection is dead: the message every in-flight and
    /// future call fails with.
    dead: Mutex<Option<String>>,
    /// Method metadata for labelling failures; `None` when the client was
    /// built without it (every failure is then an unclassified write).
    registry: Option<Arc<MethodRegistry>>,
    stats: Arc<TransportStats>,
    write_syscalls: Counter,
    frames_sent: Counter,
}

impl MuxShared {
    fn dead_error(message: &str) -> RemoteError {
        RemoteError::transport(format!("mux connection failed: {message}"))
    }

    /// The error one in-flight call fails with: names the lost method when
    /// the slot carries a label, and marks declared reads retry-safe (see
    /// [`RETRY_SAFE_EXCEPTION`]).
    fn slot_error(message: &str, label: Option<&CallLabel>) -> RemoteError {
        let Some(label) = label else {
            return Self::dead_error(message);
        };
        let detail = format!(
            "mux connection failed with `{}` in flight{}: {message}",
            label.method,
            if label.retry_safe {
                " (safe to retry)"
            } else {
                " (may have executed: do not blindly retry)"
            },
        );
        if label.retry_safe {
            RemoteError::from_wire_parts("transport", RETRY_SAFE_EXCEPTION, &detail)
        } else {
            RemoteError::transport(detail)
        }
    }

    /// Marks the connection dead (first cause wins) and fails every
    /// in-flight call. Also closes the socket so the reader unblocks.
    fn fail_all(&self, message: &str) {
        let message = {
            let mut dead = self.dead.lock().expect("mux dead lock");
            dead.get_or_insert_with(|| message.to_owned()).clone()
        };
        let slots: Vec<Arc<CallSlot>> = {
            let mut calls = self.calls.lock().expect("mux calls lock");
            calls.drain().map(|(_, slot)| slot).collect()
        };
        for slot in slots {
            slot.reply
                .set(Err(Self::slot_error(&message, slot.label.as_ref())));
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn check_alive(&self) -> Result<(), RemoteError> {
        match &*self.dead.lock().expect("mux dead lock") {
            Some(message) => Err(Self::dead_error(message)),
            None => Ok(()),
        }
    }
}

/// The multiplexed client. See the [module docs](self). Cloneable via
/// `Arc`; implements [`Transport`], so the whole RMI/BRMI stack — stubs,
/// batches, connections — runs over one socket unchanged.
pub struct MuxClient {
    shared: Arc<MuxShared>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl MuxClient {
    /// Connects to a reactor server at `addr` and starts the reader
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when the connection cannot
    /// be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Arc<Self>, RemoteError> {
        Self::connect_inner(addr, None)
    }

    /// As [`MuxClient::connect`], with method metadata attached: when the
    /// connection later dies, each in-flight call's error names the method
    /// it was awaiting, and calls the `registry` classifies read-only fail
    /// with the [`RETRY_SAFE_EXCEPTION`] exception — the caller can retry
    /// those on a fresh connection without risking double execution,
    /// something a bare `"transport"` error cannot promise.
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when the connection cannot
    /// be established.
    pub fn connect_with_meta(
        addr: impl ToSocketAddrs,
        registry: Arc<MethodRegistry>,
    ) -> Result<Arc<Self>, RemoteError> {
        Self::connect_inner(addr, Some(registry))
    }

    fn connect_inner(
        addr: impl ToSocketAddrs,
        registry: Option<Arc<MethodRegistry>>,
    ) -> Result<Arc<Self>, RemoteError> {
        let transport_err =
            |err: std::io::Error| RemoteError::transport(format!("mux connect failed: {err}"));
        let stream = TcpStream::connect(addr).map_err(transport_err)?;
        stream.set_nodelay(true).map_err(transport_err)?;
        let peer = stream.peer_addr().map_err(transport_err)?;
        let reader_stream = stream.try_clone().map_err(transport_err)?;
        let shared = Arc::new(MuxShared {
            stream,
            peer,
            io: Mutex::new(()),
            queue: Mutex::new(SendQueue {
                pending: Vec::new(),
                writer_active: false,
            }),
            calls: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            dead: Mutex::new(None),
            registry,
            stats: TransportStats::new(),
            write_syscalls: Counter::default(),
            frames_sent: Counter::default(),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("brmi-mux-reader".into())
            .spawn(move || reader_loop(reader_stream, &reader_shared))
            .map_err(transport_err)?;
        Ok(Arc::new(MuxClient {
            shared,
            reader: Mutex::new(Some(reader)),
        }))
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.shared.peer
    }

    /// Round-trip and byte counters (a round trip is recorded when its
    /// reply is delivered).
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.shared.stats)
    }

    /// `write`/`write_vectored` syscalls performed so far — the number the
    /// mux bench compares against the pool's one-write-per-frame.
    pub fn write_syscalls(&self) -> u64 {
        self.shared.write_syscalls.value()
    }

    /// Request frames sent so far.
    pub fn frames_sent(&self) -> u64 {
        self.shared.frames_sent.value()
    }

    /// Calls currently awaiting a reply.
    pub fn in_flight(&self) -> usize {
        self.shared.calls.lock().expect("mux calls lock").len()
    }

    /// Registers this client's metric cells with `registry`: the shared
    /// `transport_*` families labeled `tier="mux"`, plus the mux-specific
    /// `mux_write_syscalls` / `mux_frames_sent` pair whose ratio is the
    /// write-coalescing win over one-write-per-frame.
    pub fn register_metrics(&self, registry: &Registry) {
        self.shared.stats.register_metrics(registry, "mux");
        registry.register_counter("mux_write_syscalls", &[], &self.shared.write_syscalls);
        registry.register_counter("mux_frames_sent", &[], &self.shared.frames_sent);
    }

    /// Registers a call slot and encodes `frame` into its envelope.
    fn prepare(&self, frame: &Frame) -> Result<(u64, Arc<CallSlot>, Envelope), RemoteError> {
        self.shared.check_alive()?;
        let mut body = Vec::new();
        frame.encode_into(&mut body);
        let len = u32::try_from(body.len())
            .ok()
            .filter(|&len| len <= MAX_FRAME)
            .ok_or_else(|| RemoteError::transport("mux request frame too large"))?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut header = [0u8; 4 + MUX_ID_LEN];
        header[..4].copy_from_slice(&(len | MUX_FLAG).to_le_bytes());
        header[4..].copy_from_slice(&id.to_le_bytes());
        let label = CallLabel::of(frame, self.shared.registry.as_deref());
        let slot = Arc::new(CallSlot {
            sent: body.len(),
            label,
            reply: OneShot::default(),
        });
        self.shared
            .calls
            .lock()
            .expect("mux calls lock")
            .insert(id, Arc::clone(&slot));
        Ok((id, slot, Envelope { header, body }))
    }

    /// Starts one call: the envelope joins the pending queue and this
    /// caller drains it if no writer is active (leader election — see the
    /// module docs). Returns immediately with the pending reply.
    ///
    /// # Errors
    ///
    /// Fails fast when the connection is already dead or the frame cannot
    /// travel; write failures surface through [`MuxPending::wait`].
    pub fn call(&self, frame: &Frame) -> Result<MuxPending, RemoteError> {
        let (_id, slot, envelope) = self.prepare(frame)?;
        let lead = {
            let mut queue = self.shared.queue.lock().expect("mux queue lock");
            queue.pending.push(envelope);
            if queue.writer_active {
                false
            } else {
                queue.writer_active = true;
                true
            }
        };
        if lead {
            self.drain_queue();
        }
        Ok(MuxPending { slot })
    }

    /// Ships several calls as **one** vectored write and returns one
    /// pending reply per call, in order. This is the deterministic
    /// coalescing path: a burst of `n` calls costs one write syscall
    /// (absent partial writes) instead of `n`.
    ///
    /// # Errors
    ///
    /// Fails fast when the connection is dead or a frame cannot travel.
    /// A write failure fails every in-flight call (at-most-once); the
    /// returned pendings then yield that error.
    pub fn call_burst(&self, frames: &[Frame]) -> Result<Vec<MuxPending>, RemoteError> {
        let mut slots = Vec::with_capacity(frames.len());
        let mut ids = Vec::with_capacity(frames.len());
        let mut envelopes = Vec::with_capacity(frames.len());
        for frame in frames {
            match self.prepare(frame) {
                Ok((id, slot, envelope)) => {
                    slots.push(MuxPending { slot });
                    ids.push(id);
                    envelopes.push(envelope);
                }
                Err(err) => {
                    // Nothing has touched the wire: unregister the slots
                    // already inserted so they cannot linger as phantom
                    // in-flight calls.
                    let mut calls = self.shared.calls.lock().expect("mux calls lock");
                    for id in ids {
                        calls.remove(&id);
                    }
                    return Err(err);
                }
            }
        }
        if !envelopes.is_empty() {
            let bufs = Envelope::slices(&envelopes);
            let result = {
                let _io = self.shared.io.lock().expect("mux io lock");
                write_all_vectored(&mut (&self.shared.stream), &bufs)
            };
            match result {
                Ok(syscalls) => {
                    self.shared.write_syscalls.add(syscalls as u64);
                    self.shared.frames_sent.add(envelopes.len() as u64);
                }
                Err(err) => self.shared.fail_all(&err.to_string()),
            }
        }
        Ok(slots)
    }

    /// Drains the pending queue as the leader: each pass takes everything
    /// queued so far — this caller's frame plus any pushed by peers in the
    /// meantime — and writes it in one vectored syscall.
    fn drain_queue(&self) {
        loop {
            let batch = {
                let mut queue = self.shared.queue.lock().expect("mux queue lock");
                if queue.pending.is_empty() {
                    queue.writer_active = false;
                    return;
                }
                std::mem::take(&mut queue.pending)
            };
            let bufs = Envelope::slices(&batch);
            let result = {
                let _io = self.shared.io.lock().expect("mux io lock");
                write_all_vectored(&mut (&self.shared.stream), &bufs)
            };
            match result {
                Ok(syscalls) => {
                    self.shared.write_syscalls.add(syscalls as u64);
                    self.shared.frames_sent.add(batch.len() as u64);
                }
                Err(err) => {
                    {
                        let mut queue = self.shared.queue.lock().expect("mux queue lock");
                        queue.pending.clear();
                        queue.writer_active = false;
                    }
                    self.shared.fail_all(&err.to_string());
                    return;
                }
            }
        }
    }
}

impl Transport for MuxClient {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        self.call(&frame)?.wait()
    }

    fn submit(&self, frame: Frame) -> Pending {
        match self.call(&frame) {
            Ok(pending) => pending.into(),
            Err(err) => Pending::ready(Err(err)),
        }
    }
}

impl Snapshot for MuxClient {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry);
        registry.snapshot()
    }
}

impl std::fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxClient")
            .field("peer", &self.shared.peer)
            .field("in_flight", &self.in_flight())
            .field("frames_sent", &self.frames_sent())
            .field("write_syscalls", &self.write_syscalls())
            .finish_non_exhaustive()
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        // Close both directions so the reader unblocks, then join it; the
        // reader fails any calls still in flight on its way out.
        let _ = self.shared.stream.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.lock().expect("mux reader lock").take() {
            let _ = handle.join();
        }
    }
}

/// The reader thread: reads reply envelopes, demultiplexes by request id
/// and delivers to the registered slots. Any failure — EOF, IO error,
/// protocol violation, unknown id — kills the connection and fails every
/// in-flight call.
fn reader_loop(mut stream: TcpStream, shared: &MuxShared) {
    let mut body = Vec::new();
    let failure = loop {
        let mut header = [0u8; 4];
        match stream.read_exact(&mut header) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => {
                break "connection closed by server".to_owned();
            }
            Err(err) => break err.to_string(),
        }
        let raw = u32::from_le_bytes(header);
        if raw & MUX_FLAG == 0 {
            break "reply without correlation envelope".to_owned();
        }
        let len = (raw & !MUX_FLAG) as usize;
        if len as u32 > MAX_FRAME {
            break format!("reply length {len} exceeds maximum");
        }
        let mut id_buf = [0u8; MUX_ID_LEN];
        if let Err(err) = stream.read_exact(&mut id_buf) {
            break err.to_string();
        }
        let id = u64::from_le_bytes(id_buf);
        // Chunked body read: the declared length is untrusted until the
        // bytes arrive — shared with `framing::read_frame_bytes`.
        if let Err(err) = read_body_chunked(&mut stream, len, &mut body) {
            break err.to_string();
        }
        let frame = match Frame::from_wire_bytes(&body) {
            Ok(frame) => frame,
            Err(err) => break format!("undecodable reply: {err}"),
        };
        let slot = shared.calls.lock().expect("mux calls lock").remove(&id);
        match slot {
            Some(slot) => {
                shared.stats.record(slot.sent, body.len());
                slot.reply.set(Ok(frame));
            }
            // An id we never sent (or already answered) is a protocol
            // violation: the stream cannot be trusted any more.
            None => break format!("reply for unknown request id {id}"),
        }
        trim_buf(&mut body);
    };
    shared.fail_all(&failure);
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_wire::protocol::{BatchCall, IdemKey, TraceCtx};
    use brmi_wire::value::Value;
    use brmi_wire::ObjectId;
    use std::io::Write;
    use std::net::TcpListener;

    fn call_frame(tag: i32) -> Frame {
        Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "echo".into(),
            args: vec![Value::I32(tag)],
        }
    }

    /// Reads one request envelope off a fake server's socket.
    fn read_envelope(stream: &mut TcpStream) -> Option<(u64, Frame)> {
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).ok()?;
        let raw = u32::from_le_bytes(header);
        assert_ne!(raw & MUX_FLAG, 0, "requests must be enveloped");
        let mut id_buf = [0u8; MUX_ID_LEN];
        stream.read_exact(&mut id_buf).ok()?;
        let mut body = vec![0u8; (raw & !MUX_FLAG) as usize];
        stream.read_exact(&mut body).ok()?;
        Some((
            u64::from_le_bytes(id_buf),
            Frame::from_wire_bytes(&body).unwrap(),
        ))
    }

    /// Writes one reply envelope from a fake server.
    fn write_envelope(stream: &mut TcpStream, id: u64, frame: &Frame) {
        let mut body = Vec::new();
        frame.encode_into(&mut body);
        stream
            .write_all(&((body.len() as u32) | MUX_FLAG).to_le_bytes())
            .unwrap();
        stream.write_all(&id.to_le_bytes()).unwrap();
        stream.write_all(&body).unwrap();
    }

    fn fake_server() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    /// The satellite correlation test: two calls in flight, the server
    /// replies in *reverse* order, and each caller still receives its own
    /// reply — routing is by id, not arrival order.
    #[test]
    fn interleaved_replies_route_to_the_right_caller() {
        let (listener, addr) = fake_server();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let first = read_envelope(&mut peer).unwrap();
            let second = read_envelope(&mut peer).unwrap();
            // Echo each request's argument back — in reverse order.
            for (id, frame) in [second, first] {
                let Frame::Call { args, .. } = frame else {
                    panic!("expected a call frame");
                };
                write_envelope(&mut peer, id, &Frame::Return(args[0].clone()));
            }
            // Hold the connection open until the client is done.
            let _ = read_envelope(&mut peer);
        });
        let client = MuxClient::connect(addr).unwrap();
        let callers: Vec<_> = [1, 2]
            .map(|tag| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.request(call_frame(tag)))
            })
            .into_iter()
            .collect();
        let replies: Vec<Frame> = callers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let mut tags: Vec<Frame> = replies;
        tags.sort_by_key(|frame| match frame {
            Frame::Return(Value::I32(tag)) => *tag,
            other => panic!("unexpected reply {other:?}"),
        });
        assert_eq!(
            tags,
            vec![Frame::Return(Value::I32(1)), Frame::Return(Value::I32(2))]
        );
        assert_eq!(client.in_flight(), 0);
        drop(client);
        server.join().unwrap();
    }

    /// Each thread's `request` got *its* tag back (not just some tag):
    /// covered explicitly here with distinguishable replies per caller.
    #[test]
    fn reversed_replies_reach_their_own_callers() {
        let (listener, addr) = fake_server();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let a = read_envelope(&mut peer).unwrap();
            let b = read_envelope(&mut peer).unwrap();
            for (id, frame) in [b, a] {
                let Frame::Call { args, .. } = frame else {
                    panic!("expected a call frame");
                };
                // Reply = request arg × 10, so caller/reply pairing is
                // checkable end to end.
                let Value::I32(tag) = args[0] else { panic!() };
                write_envelope(&mut peer, id, &Frame::Return(Value::I32(tag * 10)));
            }
            let _ = read_envelope(&mut peer);
        });
        let client = MuxClient::connect(addr).unwrap();
        let callers: Vec<_> = [3, 7]
            .map(|tag| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || (tag, client.request(call_frame(tag)).unwrap()))
            })
            .into_iter()
            .collect();
        for handle in callers {
            let (tag, reply) = handle.join().unwrap();
            assert_eq!(reply, Frame::Return(Value::I32(tag * 10)), "caller {tag}");
        }
        drop(client);
        server.join().unwrap();
    }

    /// The satellite disconnect test: a mid-flight disconnect fails every
    /// in-flight call with a transport error, later calls fail fast, and
    /// nothing is replayed (the server observes each request exactly once).
    #[test]
    fn mid_flight_disconnect_fails_all_in_flight_without_replay() {
        let (listener, addr) = fake_server();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // Read both in-flight requests, then drop the connection
            // without answering either.
            let mut seen = 0;
            while seen < 2 {
                read_envelope(&mut peer).unwrap();
                seen += 1;
            }
            seen
        });
        let client = MuxClient::connect(addr).unwrap();
        let callers: Vec<_> = [1, 2]
            .map(|tag| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.request(call_frame(tag)))
            })
            .into_iter()
            .collect();
        for handle in callers {
            let err = handle.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport);
        }
        // The connection is dead: later calls fail fast, nothing in
        // flight, and no request was ever re-sent (the server read exactly
        // the two originals before closing).
        assert!(client.request(call_frame(3)).is_err());
        assert_eq!(client.in_flight(), 0);
        assert_eq!(server.join().unwrap(), 2);
        assert_eq!(client.frames_sent(), 2, "no replay after the disconnect");
    }

    /// With method metadata attached, a disconnect error names the lost
    /// method and marks declared reads retry-safe — so a caller can tell
    /// "my `get` was lost, retry it" from "my `put` may have executed".
    #[test]
    fn disconnect_errors_name_the_method_and_its_read_safety() {
        use brmi_wire::{InterfaceMeta, MethodMeta};
        static METHODS: &[MethodMeta] = &[
            MethodMeta {
                interface: "Store",
                name: "get",
                read_only: true,
                arity: 1,
                returns_remote: false,
            },
            MethodMeta {
                interface: "Store",
                name: "put",
                read_only: false,
                arity: 2,
                returns_remote: false,
            },
        ];
        static META: InterfaceMeta = InterfaceMeta {
            interface: "Store",
            methods: METHODS,
        };

        let frame_for = |method: &str| Frame::Call {
            key: None,
            target: ObjectId(1),
            method: method.into(),
            args: vec![],
        };
        let batch_of = |method: &'static str| BatchCall {
            key: None,
            request: brmi_wire::invocation::BatchRequest {
                session: None,
                calls: vec![brmi_wire::invocation::InvocationData {
                    seq: brmi_wire::invocation::CallSeq(0),
                    target: brmi_wire::invocation::Target::Remote(ObjectId(1)),
                    method: method.into(),
                    args: vec![],
                    cursor: None,
                    opens_cursor: false,
                }],
                policy: Default::default(),
                keep_session: false,
            },
        };
        // (request, the method text its error must quote, retry-safe?)
        let lost = [
            (frame_for("get"), "get", true),
            (frame_for("put"), "put", false),
            // The label looks through the trace envelope: a keyed write is
            // retry-safe traced or not.
            (
                Frame::Call {
                    key: Some(IdemKey {
                        client_id: 1,
                        seq: 0,
                        acked: 0,
                    }),
                    target: ObjectId(1),
                    method: "put".into(),
                    args: vec![],
                }
                .with_trace(Some(TraceCtx {
                    trace_id: 1,
                    span_id: 1,
                    parent: 0,
                })),
                "put",
                true,
            ),
            // An unkeyed super-batch is labelled too, and is read-safe only
            // when every call of every member is.
            (
                Frame::SuperBatchCall(vec![batch_of("put"), batch_of("get")]),
                "put (super-batch of 2)",
                false,
            ),
            (
                Frame::SuperBatchCall(vec![batch_of("get"), batch_of("get")]),
                "get (super-batch of 2)",
                true,
            ),
        ];

        let (listener, addr) = fake_server();
        let in_flight = lost.len();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // Swallow every request, then drop the connection unanswered.
            for _ in 0..in_flight {
                read_envelope(&mut peer).unwrap();
            }
        });
        let registry = Arc::new(MethodRegistry::of(&[&META]));
        let client = MuxClient::connect_with_meta(addr, registry).unwrap();
        let callers: Vec<_> = lost
            .map(|(frame, method, retry_safe)| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || (method, retry_safe, client.request(frame)))
            })
            .into_iter()
            .collect();
        for handle in callers {
            let (method, retry_safe, result) = handle.join().unwrap();
            let err = result.unwrap_err();
            assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport);
            assert!(
                err.message().contains(&format!("`{method}`")),
                "error names the lost method: {err}"
            );
            if retry_safe {
                assert_eq!(err.exception(), RETRY_SAFE_EXCEPTION);
                assert!(err.message().contains("safe to retry"), "{err}");
            } else {
                assert_eq!(err.exception(), "transport");
                assert!(err.message().contains("do not blindly retry"), "{err}");
            }
        }
        // Fail-fast errors for calls that never registered a slot stay
        // unlabelled.
        let err = client.request(frame_for("get")).unwrap_err();
        assert_eq!(err.exception(), "transport");
        drop(client);
        server.join().unwrap();
    }

    /// A burst of calls leaves in one vectored write syscall and every
    /// reply routes home.
    #[test]
    fn burst_coalesces_into_one_write_syscall() {
        let (listener, addr) = fake_server();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // Echo every request as it arrives.
            while let Some((id, frame)) = read_envelope(&mut peer) {
                let Frame::Call { args, .. } = frame else {
                    panic!("expected a call frame");
                };
                write_envelope(&mut peer, id, &Frame::Return(args[0].clone()));
            }
        });
        let client = MuxClient::connect(addr).unwrap();
        let frames: Vec<Frame> = (0..8).map(call_frame).collect();
        let before = client.write_syscalls();
        let pendings = client.call_burst(&frames).unwrap();
        assert_eq!(
            client.write_syscalls() - before,
            1,
            "one vectored syscall for the whole burst"
        );
        for (i, pending) in pendings.into_iter().enumerate() {
            assert_eq!(pending.wait().unwrap(), Frame::Return(Value::I32(i as i32)));
        }
        assert_eq!(client.frames_sent(), 8);
        drop(client);
        server.join().unwrap();
    }

    /// A burst that fails partway through preparation (nothing on the wire
    /// yet) must unregister the slots it already inserted: no phantom
    /// in-flight calls, and the connection stays usable.
    #[test]
    fn failed_burst_unregisters_already_prepared_calls() {
        let (listener, addr) = fake_server();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            while let Some((id, frame)) = read_envelope(&mut peer) {
                let Frame::Call { args, .. } = frame else {
                    panic!("expected a call frame");
                };
                write_envelope(&mut peer, id, &Frame::Return(args[0].clone()));
            }
        });
        let client = MuxClient::connect(addr).unwrap();
        let huge = Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "echo".into(),
            args: vec![Value::Bytes(vec![0u8; MAX_FRAME as usize + 1])],
        };
        let err = client.call_burst(&[call_frame(1), huge]).unwrap_err();
        assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport);
        assert_eq!(client.in_flight(), 0, "no phantom in-flight slots");
        // Nothing from the failed burst touched the wire; the connection
        // still works.
        let replies = client.call_burst(&[call_frame(5)]).unwrap();
        for pending in replies {
            assert_eq!(pending.wait().unwrap(), Frame::Return(Value::I32(5)));
        }
        drop(client);
        server.join().unwrap();
    }

    /// Keyed traffic transparently survives a poisoned connection when the
    /// client is wrapped in a [`RetryTransport`](crate::retry) whose
    /// connect factory dials a replacement `MuxClient`: the poisoned
    /// client fails fast, is discarded, and the re-sent keyed frame lands
    /// on the fresh connection.
    #[test]
    fn poisoned_client_is_replaced_and_keyed_traffic_survives() {
        use crate::retry::{RetryPolicy, RetryTransport};
        let (listener, addr) = fake_server();
        let server = std::thread::spawn(move || {
            // First connection: poison the stream with a reply for an id
            // that was never issued, then hang up.
            let (mut peer, _) = listener.accept().unwrap();
            let (id, _) = read_envelope(&mut peer).unwrap();
            write_envelope(&mut peer, id.wrapping_add(1000), &Frame::Released);
            drop(peer);
            // Second connection (the replacement): serve properly.
            let (mut peer, _) = listener.accept().unwrap();
            while let Some((id, frame)) = read_envelope(&mut peer) {
                let reply = match frame {
                    Frame::Call { key: Some(key), .. } => Frame::Return(Value::I64(key.seq as i64)),
                    Frame::Call { args, .. } => Frame::Return(args[0].clone()),
                    _ => Frame::Return(Value::Null),
                };
                write_envelope(&mut peer, id, &reply);
            }
        });
        let retry = RetryTransport::new(
            move || MuxClient::connect(addr).map(|client| client as Arc<dyn Transport>),
            RetryPolicy::immediate(4),
        );
        let keyed = Frame::Call {
            key: Some(IdemKey {
                client_id: 3,
                seq: 11,
                acked: 0,
            }),
            target: ObjectId(1),
            method: "echo".into(),
            args: vec![],
        };
        assert_eq!(retry.request(keyed).unwrap(), Frame::Return(Value::I64(11)));
        assert_eq!(retry.reconnects(), 2, "poisoned client was replaced");
        // The replacement connection keeps serving unkeyed traffic too.
        assert_eq!(
            retry.request(call_frame(5)).unwrap(),
            Frame::Return(Value::I32(5))
        );
        drop(retry);
        server.join().unwrap();
    }

    /// An unknown correlation id is a protocol violation that kills the
    /// connection rather than silently dropping bytes.
    #[test]
    fn unknown_correlation_id_kills_the_connection() {
        let (listener, addr) = fake_server();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let (id, _) = read_envelope(&mut peer).unwrap();
            write_envelope(&mut peer, id.wrapping_add(1000), &Frame::Released);
            let _ = read_envelope(&mut peer);
        });
        let client = MuxClient::connect(addr).unwrap();
        let err = client.request(call_frame(1)).unwrap_err();
        assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport);
        assert!(client.request(call_frame(2)).is_err(), "dead thereafter");
        drop(client);
        server.join().unwrap();
    }
}
