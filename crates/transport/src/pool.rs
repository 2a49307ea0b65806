//! The blocking TCP client: a connection pool, so threads sharing one
//! transport are not serialized on one socket.
//!
//! Each [`Transport::request`] checks a connection out of an idle pool
//! (dialing a fresh one when the pool is empty), performs the round trip,
//! and returns the connection — with its reused scratch buffers — to the
//! pool. One caller therefore holds exactly one socket, N concurrent
//! callers drive N sockets against the same server, the pooled path stays
//! allocation-free in steady state, and an application can share a single
//! `Arc<TcpPool>` across every thread. (The evented alternative, many
//! callers over *one* socket, is [`MuxClient`](crate::mux::MuxClient).)
//!
//! Staleness is handled *before* a request is committed to a socket: an
//! idle pooled connection may have been closed by the server while it sat
//! in the pool, so checkout probes each candidate (a nonblocking peek —
//! EOF, errors or stray bytes disqualify it) and discards dead ones in
//! favour of a fresh dial.
//!
//! Once a request has been *written*, a failure is never re-sent here:
//! the broken connection is discarded (the next checkout dials fresh) and
//! the transport error surfaced to the caller. After the write the server
//! may already have executed the call, and replaying a non-idempotent
//! request such as a purchase would double-apply it. Keyed traffic that
//! may be re-sent ([`Frame::is_retry_safe`]) gets its retries from the one
//! retry layer, `RetryTransport::over(Arc::new(pool), policy)` (see
//! [`crate::retry`]); each re-send then lands on a freshly checked-out
//! connection.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use brmi_obs::{MetricsSnapshot, Registry, Snapshot};
use brmi_wire::protocol::Frame;
use brmi_wire::RemoteError;
use parking_lot::Mutex;

use crate::framing::ClientConn;
use crate::{Transport, TransportStats};

/// Default cap on idle connections retained between round trips.
const DEFAULT_MAX_IDLE: usize = 64;

/// A pool of client connections to one server.
///
/// See the [module docs](self) for the checkout protocol. Cloneable via
/// `Arc`; all threads of an application share one pool.
pub struct TcpPool {
    addr: SocketAddr,
    idle: Mutex<Vec<ClientConn>>,
    max_idle: usize,
    stats: Arc<TransportStats>,
}

impl TcpPool {
    /// Connects to the server at `addr`, validating reachability by dialing
    /// (and pooling) one connection up front.
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when the address does not
    /// resolve or the first connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, RemoteError> {
        Self::with_max_idle(addr, DEFAULT_MAX_IDLE)
    }

    /// Like [`TcpPool::connect`], retaining at most `max_idle` idle
    /// connections (extras are closed when checked back in).
    fn with_max_idle(addr: impl ToSocketAddrs, max_idle: usize) -> Result<Self, RemoteError> {
        let (conn, addr) = ClientConn::dial_resolved(addr)
            .map_err(|err| RemoteError::transport(format!("connect failed: {err}")))?;
        Ok(TcpPool {
            addr,
            idle: Mutex::new(vec![conn]),
            max_idle: max_idle.max(1),
            stats: TransportStats::new(),
        })
    }

    /// Registers this pool's metric cells with `registry`: the shared
    /// `transport_*` families labeled `tier="pool"`.
    pub fn register_metrics(&self, registry: &Registry) {
        self.stats.register_metrics(registry, "pool");
    }

    /// Round-trip and byte counters for every request through the pool.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    /// Number of idle connections currently pooled.
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// Checks a connection out: the most recently returned idle one that
    /// passes the liveness probe (warm buffers), or a fresh dial once the
    /// pool is exhausted. Stale idle connections are discarded here, never
    /// handed to a request.
    fn checkout(&self) -> Result<ClientConn, RemoteError> {
        loop {
            let Some(mut conn) = self.idle.lock().pop() else {
                break;
            };
            if conn.is_live() {
                return Ok(conn);
            }
        }
        ClientConn::dial_resolved(self.addr)
            .map(|(conn, _)| conn)
            .map_err(|err| RemoteError::transport(format!("connect failed: {err}")))
    }

    fn checkin(&self, conn: ClientConn) {
        let mut idle = self.idle.lock();
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }
}

impl std::fmt::Debug for TcpPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpPool")
            .field("addr", &self.addr)
            .field("idle", &self.idle_connections())
            .field("max_idle", &self.max_idle)
            .finish()
    }
}

impl Snapshot for TcpPool {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry);
        registry.snapshot()
    }
}

impl Transport for TcpPool {
    /// One checkout/round-trip/checkin. Every error returned here is
    /// transport-kind: either the dial failed or the connection broke
    /// mid-round-trip (in which case it is dropped, never pooled again).
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let mut conn = self.checkout()?;
        let (reply, bytes) = conn
            .round_trip(&frame)
            .map_err(|err| RemoteError::transport(format!("round trip failed: {err}")))?;
        self.stats.record(bytes.sent, bytes.received);
        self.checkin(conn);
        Ok(reply)
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use crate::reactor::{ReactorConfig, ReactorServer};
    use crate::RequestHandler;
    use brmi_wire::value::Value;
    use brmi_wire::ObjectId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Echoes after blocking until `gate` threads are inside the handler —
    /// proves round trips genuinely overlap. A gated echo blocks, so its
    /// server needs one dispatch worker per party ([`gated_server`]).
    struct GatedEcho {
        gate: Option<Barrier>,
        entered: AtomicUsize,
    }

    impl GatedEcho {
        fn plain() -> Arc<Self> {
            Arc::new(GatedEcho {
                gate: None,
                entered: AtomicUsize::new(0),
            })
        }

        fn gated(parties: usize) -> Arc<Self> {
            Arc::new(GatedEcho {
                gate: Some(Barrier::new(parties)),
                entered: AtomicUsize::new(0),
            })
        }
    }

    impl RequestHandler for GatedEcho {
        fn handle(&self, frame: Frame) -> Frame {
            self.entered.fetch_add(1, Ordering::SeqCst);
            if let Some(gate) = &self.gate {
                gate.wait();
            }
            match frame {
                Frame::Call { args, .. } => Frame::Return(Value::List(args)),
                _ => Frame::Return(Value::Null),
            }
        }
    }

    fn gated_server(parties: usize) -> ReactorServer {
        let config = ReactorConfig {
            dispatch_workers: parties,
            ..ReactorConfig::default()
        };
        ReactorServer::bind_with("127.0.0.1:0", GatedEcho::gated(parties), config).unwrap()
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
    fn sequential_requests_reuse_one_connection() {
        let server = ReactorServer::bind("127.0.0.1:0", GatedEcho::plain()).unwrap();
        let pool = TcpPool::connect(server.local_addr()).unwrap();
        for i in 0..20 {
            let reply = pool.request(call(vec![Value::I32(i)])).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(i)])));
        }
        assert_eq!(pool.idle_connections(), 1, "no extra connections dialed");
        assert_eq!(pool.stats().requests(), 20);
    }

    #[test]
    fn concurrent_requests_overlap_on_distinct_connections() {
        // The handler blocks until 4 requests are in flight at once, which
        // can only happen if the pool runs them on 4 distinct sockets; a
        // single serialized connection would deadlock here.
        let parties = 4;
        let server = gated_server(parties);
        let pool = Arc::new(TcpPool::connect(server.local_addr()).unwrap());
        let handles: Vec<_> = (0..parties)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let value = Value::I32(i as i32);
                    let reply = pool.request(call(vec![value.clone()])).unwrap();
                    assert_eq!(reply, Frame::Return(Value::List(vec![value])));
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(pool.idle_connections(), parties);
    }

    #[test]
    fn idle_cap_closes_surplus_connections() {
        let parties = 4;
        let server = gated_server(parties);
        let pool = Arc::new(TcpPool::with_max_idle(server.local_addr(), 2).unwrap());
        let handles: Vec<_> = (0..parties)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.request(call(vec![])).unwrap())
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(pool.idle_connections() <= 2);
    }

    #[test]
    fn stale_pooled_connection_is_discarded_at_checkout() {
        // First server dies after the pool has a warm connection to it;
        // the checkout probe must notice the EOF and dial fresh instead of
        // writing a request into a dead socket...
        let mut first = ReactorServer::bind("127.0.0.1:0", GatedEcho::plain()).unwrap();
        let addr = first.local_addr();
        let pool = TcpPool::connect(addr).unwrap();
        pool.request(call(vec![Value::I32(1)])).unwrap();
        first.shutdown();
        // ...and a new server reuses the exact address, which usually
        // succeeds immediately after shutdown on loopback. If the OS
        // refuses the rebind, skip rather than flake.
        let Ok(second) = ReactorServer::bind(addr, GatedEcho::plain()) else {
            return;
        };
        let reply = pool.request(call(vec![Value::I32(2)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(2)])));
        drop(second);
    }

    #[test]
    fn connect_failure_is_a_transport_error() {
        let mut server = ReactorServer::bind("127.0.0.1:0", GatedEcho::plain()).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        match TcpPool::connect(addr) {
            Ok(pool) => assert!(pool.request(call(vec![])).is_err()),
            Err(err) => assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport),
        }
    }
}
