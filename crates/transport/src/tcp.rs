//! The one-socket blocking TCP client: length-prefixed frames over a real
//! socket.
//!
//! This transport exists to prove the middleware is a working distributed
//! system, not a simulation artifact: the integration suite runs its
//! client-server scenarios over real sockets against the
//! [reactor server](crate::reactor::ReactorServer). Each frame travels as a
//! 4-byte little-endian length followed by the encoded frame (see
//! [`crate::framing`]).

use std::net::{SocketAddr, ToSocketAddrs};

use brmi_wire::protocol::Frame;
use brmi_wire::RemoteError;
use parking_lot::Mutex;

use crate::framing::ClientConn;
use crate::Transport;

/// A client connection to a [`ReactorServer`](crate::reactor::ReactorServer).
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

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use crate::reactor::ReactorServer;
    use crate::RequestHandler;
    use brmi_wire::value::Value;
    use brmi_wire::ObjectId;
    use std::sync::Arc;

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
        let server = ReactorServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let client = TcpTransport::connect(server.local_addr()).unwrap();
        let reply = client.request(call(vec![Value::I32(42)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(42)])));
    }

    #[test]
    fn multiple_sequential_requests_on_one_connection() {
        let server = ReactorServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let client = TcpTransport::connect(server.local_addr()).unwrap();
        for i in 0..20 {
            let reply = client.request(call(vec![Value::I32(i)])).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(i)])));
        }
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = ReactorServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
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
        let server = ReactorServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let client = TcpTransport::connect(server.local_addr()).unwrap();
        let blob = Value::Bytes(vec![7u8; 1_000_000]);
        let reply = client.request(call(vec![blob.clone()])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![blob])));
    }

    #[test]
    fn connect_to_closed_port_is_transport_error() {
        // Bind and immediately shut down to get a (very likely) dead port.
        let mut server = ReactorServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
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
}
