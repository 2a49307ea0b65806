//! Real TCP transport: length-prefixed frames over sockets.
//!
//! This transport exists to prove the middleware is a working distributed
//! system, not a simulation artifact: the integration suite runs every
//! client/server scenario over real sockets. Each frame travels as a 4-byte
//! little-endian length followed by the encoded frame (see
//! [`crate::framing`]).
//!
//! [`TcpServer`] is the simple thread-per-connection server; it is easy to
//! reason about and fine for a handful of peers. For hundreds of concurrent
//! connections use the [reactor server](crate::reactor::ReactorServer),
//! which serves all of them from a fixed set of event-loop threads.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use brmi_wire::protocol::{Frame, FrameRef};
use brmi_wire::RemoteError;
use parking_lot::Mutex;

use crate::framing::{decode_error, read_frame_bytes, trim_buf, write_frame, ClientConn};
use crate::{RequestHandler, Transport};

/// A client connection to a [`TcpServer`] (or a
/// [`ReactorServer`](crate::reactor::ReactorServer)).
///
/// The underlying stream is mutex-protected; RMI semantics are one
/// outstanding request per connection, so callers wanting concurrency open
/// one transport per thread (exactly as BRMI requires one batch stub per
/// thread, paper Section 4.5) — or share one [`TcpPool`](crate::pool::TcpPool),
/// which checks out a pooled connection per round trip instead of
/// serializing callers on a single socket.
pub struct TcpTransport {
    conn: Mutex<ClientConn>,
    peer: SocketAddr,
}

impl TcpTransport {
    /// Connects to a server at `addr`.
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when the connection cannot
    /// be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, RemoteError> {
        let (conn, peer) = ClientConn::dial_resolved(addr)
            .map_err(|err| RemoteError::transport(format!("connect failed: {err}")))?;
        Ok(TcpTransport {
            conn: Mutex::new(conn),
            peer,
        })
    }

    /// The server address this transport is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.peer)
            .finish()
    }
}

impl Transport for TcpTransport {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let conn = &mut *self.conn.lock();
        conn.round_trip(&frame)
            .map(|(reply, _)| reply)
            .map_err(|err| RemoteError::transport(format!("round trip failed: {err}")))
    }
}

/// Connection bookkeeping shared between the accept loop and
/// [`TcpServer::shutdown`]: a clone of every live stream (so shutdown can
/// unblock reads) and the join handle of every spawned thread (so shutdown
/// leaks none of them).
#[derive(Default)]
struct ConnRegistry {
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
    handles: Vec<JoinHandle<()>>,
}

/// A threaded TCP server feeding a [`RequestHandler`].
///
/// Accepts connections until shut down; each connection gets its own thread
/// handling requests sequentially. [`TcpServer::shutdown`] (also run on
/// drop) closes every live connection and joins all threads — accept loop
/// and per-connection handlers alike.
pub struct TcpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Mutex<ConnRegistry>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when binding fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<Self, RemoteError> {
        let listener = TcpListener::bind(addr)
            .map_err(|err| RemoteError::transport(format!("bind failed: {err}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|err| RemoteError::transport(format!("local_addr failed: {err}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Mutex::new(ConnRegistry::default()));

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_registry = Arc::clone(&registry);
        let accept_thread = std::thread::Builder::new()
            .name("brmi-tcp-accept".into())
            .spawn(move || accept_loop(listener, handler, accept_shutdown, accept_registry))
            .map_err(|err| RemoteError::transport(format!("spawn failed: {err}")))?;

        Ok(TcpServer {
            local_addr,
            shutdown,
            registry,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections, closes every live connection and joins
    /// all server threads. Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the listener so the blocking accept returns.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Unblock every connection thread parked in a read, then join them.
        // The handles are taken out of the lock first so an exiting thread
        // (which removes its own stream entry) can never deadlock with us.
        let handles = {
            let mut registry = self.registry.lock();
            for stream in registry.streams.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut registry.handles)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    handler: Arc<dyn RequestHandler>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Mutex<ConnRegistry>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let handler = Arc::clone(&handler);
                let conn_shutdown = Arc::clone(&shutdown);
                let conn_registry = Arc::clone(&registry);
                // Without a registered stream clone, shutdown() could not
                // unblock this connection's read and would hang joining it;
                // refuse the connection instead (clone fails only under fd
                // exhaustion, where serving it was doomed anyway).
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let mut guard = registry.lock();
                let id = guard.next_id;
                guard.next_id += 1;
                guard.streams.insert(id, clone);
                // Reap handles of finished threads so a long-lived server
                // under connection churn holds O(live connections), not
                // O(connections ever served). (Dropping a finished handle
                // detaches a thread that has already exited.)
                guard.handles.retain(|handle| !handle.is_finished());
                let spawned = std::thread::Builder::new()
                    .name("brmi-tcp-conn".into())
                    .spawn(move || {
                        connection_loop(stream, handler, conn_shutdown);
                        conn_registry.lock().streams.remove(&id);
                    });
                match spawned {
                    Ok(handle) => guard.handles.push(handle),
                    Err(_) => {
                        guard.streams.remove(&id);
                        return;
                    }
                }
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn connection_loop(
    mut stream: TcpStream,
    handler: Arc<dyn RequestHandler>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    // Both frame buffers are reused for the life of the connection, so a
    // steady request stream performs no per-frame buffer allocations; the
    // request is dispatched as a borrowed view into `read_buf`.
    let mut read_buf: Vec<u8> = Vec::new();
    let mut write_buf: Vec<u8> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match read_frame_bytes(&mut stream, &mut read_buf) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let reply = match FrameRef::from_wire_bytes(&read_buf).map_err(decode_error) {
            Ok(frame) => handler.handle_ref(frame),
            Err(_) => return,
        };
        if write_frame(&mut stream, &reply, &mut write_buf).is_err() {
            return;
        }
        trim_buf(&mut read_buf);
        trim_buf(&mut write_buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_wire::value::Value;
    use brmi_wire::ObjectId;

    struct EchoHandler;

    impl RequestHandler for EchoHandler {
        fn handle(&self, frame: Frame) -> Frame {
            match frame {
                Frame::Call { args, .. } => Frame::Return(Value::List(args)),
                _ => Frame::Return(Value::Null),
            }
        }
    }

    fn call(args: Vec<Value>) -> Frame {
        Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "echo".into(),
            args,
        }
    }

    #[test]
    fn request_reply_over_real_sockets() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let client = TcpTransport::connect(server.local_addr()).unwrap();
        let reply = client.request(call(vec![Value::I32(42)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(42)])));
    }

    #[test]
    fn multiple_sequential_requests_on_one_connection() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let client = TcpTransport::connect(server.local_addr()).unwrap();
        for i in 0..20 {
            let reply = client.request(call(vec![Value::I32(i)])).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(i)])));
        }
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = TcpTransport::connect(addr).unwrap();
                    for j in 0..10 {
                        let value = Value::I32(i * 100 + j);
                        let reply = client.request(call(vec![value.clone()])).unwrap();
                        assert_eq!(reply, Frame::Return(Value::List(vec![value])));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn large_payload_round_trips() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let client = TcpTransport::connect(server.local_addr()).unwrap();
        let blob = Value::Bytes(vec![7u8; 1_000_000]);
        let reply = client.request(call(vec![blob.clone()])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![blob])));
    }

    #[test]
    fn connect_to_closed_port_is_transport_error() {
        // Bind and immediately shut down to get a (very likely) dead port.
        let mut server = TcpServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        // Either the connect fails or the first request does.
        match TcpTransport::connect(addr) {
            Ok(client) => {
                let result = client.request(call(vec![]));
                assert!(result.is_err());
            }
            Err(err) => {
                assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport);
            }
        }
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server = TcpServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        server.shutdown();
        server.shutdown();
    }

    /// The graceful-shutdown contract: with clients parked mid-connection
    /// (their threads blocked in a read), `shutdown()` must close the
    /// connections and join every thread rather than leaking them.
    #[test]
    fn shutdown_joins_idle_connection_threads() {
        let mut server = TcpServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let clients: Vec<TcpTransport> = (0..4)
            .map(|_| TcpTransport::connect(server.local_addr()).unwrap())
            .collect();
        // Prove the connections are established and idle.
        for client in &clients {
            client.request(call(vec![Value::I32(1)])).unwrap();
        }
        server.shutdown();
        // All connection threads were joined, so the registry is empty and
        // subsequent requests fail cleanly.
        assert!(server.registry.lock().handles.is_empty());
        for client in &clients {
            assert!(client.request(call(vec![])).is_err());
        }
    }
}
