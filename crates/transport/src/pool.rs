//! Pooled TCP client transport: concurrent round trips without
//! per-connection serialization.
//!
//! [`TcpTransport`](crate::tcp::TcpTransport) funnels every caller through
//! one mutex-protected socket, so N threads sharing a connection proceed
//! one round trip at a time. [`TcpPool`] removes that bottleneck: each
//! [`Transport::request`] checks a connection out of an idle pool (dialing
//! a fresh one when the pool is empty), performs the round trip, and
//! returns the connection — with its reused scratch buffers — to the pool.
//! N callers thus drive N concurrent sockets against the same server while
//! the pooled path stays allocation-free in steady state, and an
//! application can share a single `Arc<TcpPool>` across every thread.
//!
//! Staleness is handled *before* a request is committed to a socket: an
//! idle pooled connection may have been closed by the server while it sat
//! in the pool, so checkout probes each candidate (a nonblocking peek —
//! EOF, errors or stray bytes disqualify it) and discards dead ones in
//! favour of a fresh dial.
//!
//! Once a request has been *written*, what happens on failure depends on
//! the frame's delivery mode:
//!
//! * **At-most-once** (plain calls and batches): the failure is never
//!   retried. After the write the server may already have executed the
//!   call, and replaying a non-idempotent request such as a purchase would
//!   double-apply it. The failed connection is discarded and the error
//!   surfaced to the caller.
//! * **Retry-safe exactly-once visible** (requests carrying an
//!   idempotency key, [`Frame::is_retry_safe`]): the pool redials and re-sends the frame
//!   verbatim under its [`RetryPolicy`] (capped exponential backoff).
//!   Re-sending is safe even when only the reply was lost, because the
//!   origin's reply cache deduplicates by idempotency key and answers a
//!   re-sent key with the recorded reply instead of executing again.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use brmi_obs::{Counter, MetricsSnapshot, Registry, Snapshot};
use brmi_wire::protocol::Frame;
use brmi_wire::RemoteError;
use parking_lot::Mutex;

use crate::framing::ClientConn;
use crate::retry::RetryPolicy;
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
    retry: RetryPolicy,
    retries: Counter,
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
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when the address does not
    /// resolve or the first connection cannot be established.
    pub fn with_max_idle(addr: impl ToSocketAddrs, max_idle: usize) -> Result<Self, RemoteError> {
        let (conn, addr) = ClientConn::dial_resolved(addr)
            .map_err(|err| RemoteError::transport(format!("connect failed: {err}")))?;
        Ok(TcpPool {
            addr,
            idle: Mutex::new(vec![conn]),
            max_idle: max_idle.max(1),
            retry: RetryPolicy::default(),
            retries: Counter::default(),
            stats: TransportStats::new(),
        })
    }

    /// Replaces the retry policy governing retry-safe (keyed) frames.
    /// Unkeyed traffic is unaffected — it is never retried regardless of
    /// the policy (see the [module docs](self)).
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Re-sends performed for retry-safe frames (excludes first attempts).
    pub fn retries(&self) -> u64 {
        self.retries.value()
    }

    /// Registers this pool's metric cells with `registry`: the shared
    /// `transport_*` families labeled `tier="pool"`, plus `pool_retries`
    /// counting re-sends of retry-safe frames.
    pub fn register_metrics(&self, registry: &Registry) {
        self.stats.register_metrics(registry, "pool");
        registry.register_counter("pool_retries", &[], &self.retries);
    }

    /// The server address this pool dials.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
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
        ClientConn::dial(self.addr)
            .map_err(|err| RemoteError::transport(format!("connect failed: {err}")))
    }

    fn checkin(&self, conn: ClientConn) {
        let mut idle = self.idle.lock();
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }

    /// One checkout/round-trip/checkin attempt. Every error returned here
    /// is transport-kind: either the dial failed or the connection broke
    /// mid-round-trip (in which case it is dropped, never pooled again).
    fn try_once(&self, frame: &Frame) -> Result<Frame, RemoteError> {
        let mut conn = self.checkout()?;
        match conn.round_trip(frame) {
            Ok((reply, bytes)) => {
                self.stats.record(bytes.sent, bytes.received);
                self.checkin(conn);
                Ok(reply)
            }
            // The connection is dropped either way; whether the *frame* is
            // replayed is decided by the caller's delivery mode.
            Err(err) => Err(RemoteError::transport(format!("round trip failed: {err}"))),
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
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        // Keyed frames may be re-sent (the origin dedupes them); everything
        // else keeps the classic single attempt — see the module docs.
        let budget = if frame.is_retry_safe() {
            self.retry.max_attempts.max(1)
        } else {
            1
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.try_once(&frame) {
                Ok(reply) => return Ok(reply),
                Err(err) if attempt >= budget => return Err(err),
                Err(_) => {
                    self.retries.inc();
                    let delay = self.retry.delay_for(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpServer;
    use crate::RequestHandler;
    use brmi_wire::value::Value;
    use brmi_wire::ObjectId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Echoes after blocking until `gate` threads are inside the handler —
    /// proves round trips genuinely overlap.
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
        let server = TcpServer::bind("127.0.0.1:0", GatedEcho::plain()).unwrap();
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
        let server = TcpServer::bind("127.0.0.1:0", GatedEcho::gated(parties)).unwrap();
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
        let server = TcpServer::bind("127.0.0.1:0", GatedEcho::gated(parties)).unwrap();
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
        let mut first = TcpServer::bind("127.0.0.1:0", GatedEcho::plain()).unwrap();
        let addr = first.local_addr();
        let pool = TcpPool::connect(addr).unwrap();
        pool.request(call(vec![Value::I32(1)])).unwrap();
        first.shutdown();
        // ...and a new server reuses the exact address, which usually
        // succeeds immediately after shutdown on loopback. If the OS
        // refuses the rebind, skip rather than flake.
        let Ok(second) = TcpServer::bind(addr, GatedEcho::plain()) else {
            return;
        };
        let reply = pool.request(call(vec![Value::I32(2)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(2)])));
        drop(second);
    }

    /// A hand-rolled server that reads `drop_replies` requests and hangs up
    /// on each without answering, then serves subsequent connections
    /// properly. Lets the tests below exercise the written-but-unanswered
    /// window that the checkout liveness probe cannot catch.
    fn flaky_server(drop_replies: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        use brmi_wire::WireCodec;
        let handle = std::thread::spawn(move || {
            for _ in 0..drop_replies {
                let (mut peer, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                // Read the request so the client's write succeeds, then
                // hang up: the reply is lost after execution would have
                // happened.
                let _ = crate::framing::read_frame_bytes(&mut peer, &mut buf);
            }
            let (mut peer, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut out = Vec::new();
            while let Ok(true) = crate::framing::read_frame_bytes(&mut peer, &mut buf) {
                let reply = match Frame::from_wire_bytes(&buf).unwrap() {
                    Frame::Call { key: Some(key), .. } => Frame::Return(Value::I64(key.seq as i64)),
                    _ => Frame::Return(Value::Null),
                };
                crate::framing::write_frame(&mut peer, &reply, &mut out).unwrap();
            }
        });
        (addr, handle)
    }

    fn keyed(seq: u64) -> Frame {
        Frame::Call {
            key: Some(brmi_wire::protocol::IdemKey {
                client_id: 9,
                seq,
                acked: 0,
            }),
            target: ObjectId(1),
            method: "echo".into(),
            args: vec![],
        }
    }

    #[test]
    fn keyed_request_is_resent_after_reply_loss() {
        use crate::retry::RetryPolicy;
        let (addr, server) = flaky_server(2);
        let pool = TcpPool::connect(addr)
            .unwrap()
            .with_retry_policy(RetryPolicy::immediate(5));
        // The pooled warm connection gets hung up on, as does the first
        // redial; the third attempt lands on the well-behaved connection.
        let reply = pool.request(keyed(42)).unwrap();
        assert_eq!(reply, Frame::Return(Value::I64(42)));
        assert_eq!(pool.retries(), 2);
        drop(pool);
        server.join().unwrap();
    }

    #[test]
    fn unkeyed_request_is_never_resent() {
        use crate::retry::RetryPolicy;
        let (addr, server) = flaky_server(1);
        let pool = TcpPool::connect(addr)
            .unwrap()
            .with_retry_policy(RetryPolicy::immediate(5));
        // At-most-once: the lost reply surfaces as an error instead of a
        // replay, even though the policy would allow five attempts.
        assert!(pool.request(call(vec![])).is_err());
        assert_eq!(pool.retries(), 0);
        // The pool itself is still healthy: a fresh request dials the
        // well-behaved connection.
        let reply = pool.request(call(vec![Value::I32(7)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::Null));
        drop(pool);
        server.join().unwrap();
    }

    #[test]
    fn connect_failure_is_a_transport_error() {
        let mut server = TcpServer::bind("127.0.0.1:0", GatedEcho::plain()).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        match TcpPool::connect(addr) {
            Ok(pool) => assert!(pool.request(call(vec![])).is_err()),
            Err(err) => assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::Transport),
        }
    }
}
