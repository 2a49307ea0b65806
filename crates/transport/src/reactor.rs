//! Nonblocking reactor TCP server: many connections, few threads.
//!
//! # Architecture
//!
//! A thread-per-connection server caps out at a handful of peers — every
//! idle connection pins a stack, and the scheduler thrashes long before
//! the "hundreds of clients" a batching server must multiplex (the whole
//! point of amortizing round trips is moot if the server can only hold a
//! few of them open). This module is the crate's one TCP server: a
//! hand-rolled epoll event loop — raw `extern "C"` syscall declarations in
//! the private `sys` module, no external runtime — driving nonblocking sockets, so a fixed
//! set of reactor threads serves any number of connections.
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!              │ ReactorServer                              │
//!   listener ──┤  reactor thread 0   reactor thread 1  …    │
//!  (shared,    │  ┌──────────────┐   ┌──────────────┐       │
//! nonblocking) │  │ epoll        │   │ epoll        │       │
//!              │  │  listener    │   │  listener    │       │
//!              │  │  wake pipe   │   │  wake pipe   │       │
//!              │  │  conn slab   │   │  conn slab   │       │
//!              │  └──────────────┘   └──────────────┘       │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! Every reactor thread owns one epoll instance watching three kinds of
//! file descriptors, distinguished by the `u64` token carried in each
//! event:
//!
//! * the **shared listener** (level-triggered): whichever thread wakes
//!   first accepts until `WouldBlock`, so connections distribute across
//!   threads without a hand-off queue;
//! * a **wake channel** (one nonblocking `UnixStream` pair per thread):
//!   [`ReactorServer::shutdown`] writes a byte to interrupt `epoll_wait`;
//! * **connections**, indexed into a per-thread slab.
//!
//! Each connection runs a small state machine entirely within its slab
//! slot: accumulate bytes into `in_buf` (chunk-capped reads — the length
//! prefix is untrusted, so nothing is pre-allocated from it), and once
//! `4 + len` bytes are present, decode the frame *borrowed*
//! ([`FrameRef`]) and dispatch it through the existing zero-copy
//! [`RequestHandler::handle_ref`] path; the reply is encoded into a reused
//! scratch buffer and appended, length-prefixed, to `out_buf`. Writes are
//! attempted inline and `EPOLLOUT` interest is registered only while a
//! partial write is outstanding, so the steady state costs one `epoll_ctl`
//! per connection lifetime. Pipelined requests (several frames in one read)
//! are dispatched back-to-back without extra syscalls, which is exactly the
//! shape a BRMI client's batch bursts produce.
//!
//! By default handlers run on the reactor thread itself: BRMI dispatch is
//! CPU-light (table lookup + method call), so shipping it to a worker pool
//! would cost more in hand-off than it buys. Deployments whose handlers
//! *block* — the batch relay's coalescing flush-wait is the canonical case
//! — set [`ReactorConfig::dispatch_workers`] instead: frame parsing and all
//! socket IO stay on the reactor threads, while decoded requests are handed
//! to a bounded pool of dispatch workers. Replies are routed back to the
//! owning reactor thread through its wake channel and queued **in request
//! order per connection** (a reorder buffer holds replies that finish
//! early), so pipelined peers observe exactly the inline semantics. Queued
//! work counts toward the same `HIGH_WATER` backpressure as reply bytes —
//! a connection with a full pipeline parked in the pool stops being read —
//! and shutdown drains the pool: queued jobs finish before the workers
//! join. Handlers may execute concurrently, including two frames of one
//! connection; that is already the contract (distinct connections always
//! dispatched concurrently), and per-connection *reply* order is preserved
//! regardless.
//!
//! Requests may arrive in a correlation envelope (the length prefix's
//! `MUX_FLAG` bit plus an 8-byte id — see [`crate::mux::MuxClient`]); the
//! reactor echoes the id on the reply so any number of concurrent callers
//! can share one socket. The listener is registered `EPOLLEXCLUSIVE`, so a
//! new connection wakes one reactor thread, not the whole fleet (no accept
//! thundering herd).
//!
//! Backpressure: when a connection's `out_buf` backlog exceeds
//! `HIGH_WATER`, frame dispatch pauses *and* `EPOLLIN` interest is
//! dropped, so a peer that streams requests without reading replies is
//! bounded per connection (roughly `HIGH_WATER` plus one maximum frame
//! each way — the excess queues in the kernel socket buffer, where TCP
//! flow control pushes back on the sender); reading and dispatch resume as
//! the socket drains. A peer's FIN (`EPOLLRDHUP`/zero read) stops the read
//! side but the connection lives until every queued reply is flushed, so
//! "pipeline a burst, close the write side, read the replies" works.
//! Malformed input — an over-limit length prefix or an undecodable frame —
//! closes that connection without disturbing the rest.
//!
//! Admission control: [`ReactorConfig::max_connections`] bounds the
//! admitted fleet — a connection over the cap is accepted (clearing its
//! kernel backlog slot), answered with a single `Overloaded` error frame,
//! and closed, so overload is error-coded rather than a growing accept
//! queue the client experiences as a timeout. The cap is claimed through
//! an atomic CAS, so reactor threads racing at `cap − 1` can never
//! over-admit. [`ReactorConfig::max_queue_depth`] bounds the dispatch
//! pool the same way: a request arriving while the pool already has that
//! many jobs outstanding (queued + executing) is answered `Overloaded`
//! in per-connection request order instead of queueing. Accept-side
//! resource exhaustion (`EMFILE`/`ENFILE`) pauses the listener's epoll
//! interest with an exponential-backoff re-arm — a level-triggered
//! listener would otherwise re-signal instantly and spin the event loop
//! at 100% CPU — and every shed, drop and stall is visible through
//! [`ReactorStats`].
//!
//! This server is Linux-only (epoll), so serving over TCP is too; the rest
//! of the crate, TCP clients included, builds anywhere.
//!
//! [`FrameRef`]: brmi_wire::protocol::FrameRef

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use brmi_obs::{Counter, Gauge, MetricsSnapshot, Registry, Snapshot};
use brmi_wire::codec::WireCodec;
use brmi_wire::invocation::ErrorEnvelope;
use brmi_wire::protocol::{Frame, FrameRef};
use brmi_wire::RemoteError;
use parking_lot::Mutex;

use crate::framing::{trim_buf, MAX_FRAME, MUX_FLAG, MUX_ID_LEN, READ_CHUNK};
use crate::RequestHandler;

use sys::{Epoll, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Raw epoll bindings: the only unsafe code in the crate, kept to four
/// syscalls behind a safe RAII wrapper.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;
    /// Wake (at most) one waiter per readiness event instead of every
    /// epoll instance watching the fd — Linux ≥ 4.5, valid on ADD only.
    pub(super) const EPOLLEXCLUSIVE: u32 = 1 << 28;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Mirror of the kernel's `struct epoll_event`; packed on x86-64
    /// (the kernel declares it `__attribute__((packed))` there).
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        pub(super) fn zeroed() -> EpollEvent {
            EpollEvent { events: 0, data: 0 }
        }

        // Field reads copy by value, which is safe even for the packed
        // layout (no reference to a misaligned field is ever formed).
        pub(super) fn events(&self) -> u32 {
            self.events
        }

        pub(super) fn token(&self) -> u64 {
            self.data
        }
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// An epoll instance; closed on drop.
    pub(super) struct Epoll {
        fd: c_int,
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a flags word and returns a new fd
            // or -1; no pointers are involved.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: *mut EpollEvent) -> io::Result<()> {
            // SAFETY: `event` is either null (DEL, allowed since Linux
            // 2.6.9) or points at a live EpollEvent owned by the caller.
            if unsafe { epoll_ctl(self.fd, op, fd, event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest,
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, &mut event)
        }

        pub(super) fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest,
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, &mut event)
        }

        pub(super) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, std::ptr::null_mut())
        }

        /// Waits for events, retrying on `EINTR` (with the same timeout —
        /// close enough for the backoff re-arm this exists for).
        /// `timeout_ms` of `-1` blocks indefinitely. Returns how many
        /// entries of `events` were filled.
        pub(super) fn wait(
            &self,
            events: &mut [EpollEvent],
            timeout_ms: c_int,
        ) -> io::Result<usize> {
            loop {
                let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
                // SAFETY: `events` is a live, writable slice and `capacity`
                // never exceeds its length.
                let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), capacity, timeout_ms) };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `fd` is a valid epoll fd owned exclusively by self.
            unsafe { close(self.fd) };
        }
    }
}

/// Token values 0 and 1 are reserved; connection slab slot `i` maps to
/// token `i + TOKEN_CONN_BASE`.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// Pause dispatching new frames for a connection once this many reply
/// bytes are queued; resume when the socket drains.
const HIGH_WATER: usize = 1024 * 1024;

/// Minimum backpressure charge per job queued at the dispatch pool, so a
/// peer pipelining tiny frames is bounded to `HIGH_WATER / MIN_JOB_CHARGE`
/// in-flight jobs (≈1k) rather than ~`HIGH_WATER` of them.
const MIN_JOB_CHARGE: usize = 1024;

/// Per-event cap on bytes read from one connection, so a firehose peer
/// cannot starve the rest of the slab (level-triggered epoll re-signals
/// whatever is left).
const READ_BUDGET: usize = 16 * READ_CHUNK;

/// Backoff window for a listener paused by accept-side resource
/// exhaustion: the first re-arm attempt comes after the minimum, and each
/// consecutive stall doubles the wait up to the maximum. A successful
/// accept resets the backoff.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Configuration for [`ReactorServer::bind_with`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of event-loop threads. Two saturates the request-dispatch
    /// workloads in this repo; bump it for handler-heavy deployments.
    pub reactor_threads: usize,
    /// Dispatch worker threads behind the handler. `0` (the default) runs
    /// handlers inline on the reactor threads — right for non-blocking
    /// dispatch. A positive count moves handler execution off-loop so
    /// *blocking* handlers (e.g. the batch relay's flush-wait) cannot
    /// stall unrelated connections; size it to the peak number of
    /// concurrently blocked handlers the deployment needs.
    pub dispatch_workers: usize,
    /// Maximum concurrently admitted connections across all reactor
    /// threads; `0` (the default) means unbounded. A connection over the
    /// cap is *shed*: accepted (which clears its kernel backlog slot),
    /// answered with a single `Overloaded` error frame, and closed —
    /// explicit, error-coded admission control instead of a timeout the
    /// peer cannot distinguish from a hang.
    pub max_connections: usize,
    /// Bound on dispatch-pool jobs outstanding (queued + executing);
    /// `0` (the default) means unbounded. A request arriving over the
    /// bound is answered with an `Overloaded` error frame — delivered in
    /// per-connection request order like every other reply — instead of
    /// queueing behind a saturated pool. Inline dispatch
    /// (`dispatch_workers == 0`) has no queue and ignores this knob.
    pub max_queue_depth: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            reactor_threads: 2,
            dispatch_workers: 0,
            max_connections: 0,
            max_queue_depth: 0,
        }
    }
}

/// One request frame handed to the dispatch worker pool.
struct DispatchJob {
    /// Index of the reactor thread owning the connection.
    thread: usize,
    /// Connection slab slot on that thread.
    slot: usize,
    /// Slot generation at submit time; a recycled slot discards stale
    /// completions.
    gen: u64,
    /// Per-connection request sequence — replies flush in this order.
    seq: u64,
    /// Correlation id to echo when the request arrived mux-enveloped.
    mux_id: Option<u64>,
    /// The encoded request frame (body only, no length prefix).
    request: Vec<u8>,
}

/// One finished dispatch, routed back to the owning reactor thread.
struct DispatchDone {
    slot: usize,
    gen: u64,
    seq: u64,
    mux_id: Option<u64>,
    /// Length of the request body, released from the connection's
    /// queued-work backpressure account.
    request_len: usize,
    /// Encoded reply body; `None` when the request failed to decode — the
    /// connection closes, exactly as on the inline path.
    reply: Option<Vec<u8>>,
}

struct PoolQueue {
    jobs: VecDeque<DispatchJob>,
    shutdown: bool,
}

/// Reactor observability cells: connection count, dispatch-queue depth,
/// backpressure pauses, overload sheds and accept health. Registered under
/// the `reactor_*` families by [`ReactorServer::register_metrics`].
#[derive(Debug, Default)]
pub struct ReactorStats {
    connections: Gauge,
    queue_depth: Gauge,
    backpressure_pauses: Counter,
    connections_shed: Counter,
    requests_shed: Counter,
    accept_failures: Counter,
    accept_stalled: Gauge,
}

impl ReactorStats {
    /// Currently established connections across all reactor threads.
    pub fn active_connections(&self) -> u64 {
        self.connections.value().max(0) as u64
    }

    /// Dispatch jobs currently queued for the worker pool (always zero in
    /// inline-dispatch mode).
    pub fn worker_queue_depth(&self) -> u64 {
        self.queue_depth.value().max(0) as u64
    }

    /// Times a connection's `EPOLLIN` interest was dropped because its
    /// backlog (unsent replies + pool-queued work) crossed the high-water
    /// mark — each count is one backpressure pause; reads resume when the
    /// backlog drains.
    pub fn backpressure_pauses(&self) -> u64 {
        self.backpressure_pauses.value()
    }

    /// Connections shed at accept because the fleet was at
    /// [`ReactorConfig::max_connections`]: each was accepted, answered
    /// with one `Overloaded` error frame, and closed.
    pub fn connections_shed(&self) -> u64 {
        self.connections_shed.value()
    }

    /// Requests shed because the dispatch pool was at
    /// [`ReactorConfig::max_queue_depth`]: each was answered `Overloaded`
    /// in request order instead of queueing.
    pub fn requests_shed(&self) -> u64 {
        self.requests_shed.value()
    }

    /// Accepted sockets dropped because per-socket registration failed,
    /// plus hard accept errors — previously silent.
    pub fn accept_failures(&self) -> u64 {
        self.accept_failures.value()
    }

    /// Reactor threads whose listener interest is currently paused after
    /// accept-side resource exhaustion (re-armed with backoff).
    pub fn accept_stalled(&self) -> u64 {
        self.accept_stalled.value().max(0) as u64
    }

    /// Registers the reactor's metric cells with `registry` under the
    /// `reactor_*` families.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_gauge("reactor_active_connections", &[], &self.connections);
        registry.register_gauge("reactor_worker_queue_depth", &[], &self.queue_depth);
        registry.register_counter(
            "reactor_backpressure_pauses",
            &[],
            &self.backpressure_pauses,
        );
        registry.register_counter("reactor_connections_shed", &[], &self.connections_shed);
        registry.register_counter("reactor_requests_shed", &[], &self.requests_shed);
        registry.register_counter("reactor_accept_failures", &[], &self.accept_failures);
        registry.register_gauge("reactor_accept_stalled", &[], &self.accept_stalled);
    }
}

impl Snapshot for ReactorStats {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry);
        registry.snapshot()
    }
}

/// Bounded dispatch worker pool: reactor threads push parsed requests,
/// workers execute them through the handler and hand the encoded replies
/// back via the owning thread's completion inbox + wake channel.
struct WorkerPool {
    queue: std::sync::Mutex<PoolQueue>,
    available: std::sync::Condvar,
    /// Mirror of the queue length (updated under the queue lock), shared
    /// with [`ReactorStats`].
    depth: Gauge,
    /// Jobs submitted whose handlers have not finished (queued plus
    /// executing) — the quantity [`ReactorConfig::max_queue_depth`]
    /// bounds. Unlike `depth`, this cannot transiently read low while a
    /// worker is mid-handler, so the shed decision is stable under a
    /// saturated pool.
    inflight: AtomicUsize,
}

impl WorkerPool {
    fn new(depth: Gauge) -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            queue: std::sync::Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: std::sync::Condvar::new(),
            depth,
            inflight: AtomicUsize::new(0),
        })
    }

    fn submit(&self, job: DispatchJob) {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let mut queue = self.queue.lock().expect("worker pool lock");
        queue.jobs.push_back(job);
        self.depth.set(queue.jobs.len() as i64);
        drop(queue);
        self.available.notify_one();
    }

    /// Jobs submitted whose handlers have not yet finished.
    fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    fn job_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks for the next job. Returns `None` only once shutdown is
    /// requested *and* the queue is drained — queued work always finishes.
    fn next_job(&self) -> Option<DispatchJob> {
        let mut queue = self.queue.lock().expect("worker pool lock");
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                self.depth.set(queue.jobs.len() as i64);
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.available.wait(queue).expect("worker pool lock");
        }
    }

    fn shutdown(&self) {
        self.queue.lock().expect("worker pool lock").shutdown = true;
        self.available.notify_all();
    }
}

/// Executes pool jobs until shutdown drains the queue. Each completion is
/// pushed to the owning reactor thread's inbox and signalled through its
/// wake channel; completions for threads that already exited are dropped
/// there.
fn worker_loop(pool: &WorkerPool, handler: &Arc<dyn RequestHandler>, shared: &Shared) {
    while let Some(job) = pool.next_job() {
        let reply = match FrameRef::from_wire_bytes(&job.request) {
            Ok(frame) => {
                // The hand-off owns its buffer: one allocation per pooled
                // dispatch, in exchange for zero copying at the reactor.
                let mut reply_buf = Vec::new();
                handler.handle_ref(frame).encode_into(&mut reply_buf);
                Some(reply_buf)
            }
            Err(_) => None,
        };
        pool.job_finished();
        shared.deliver(
            job.thread,
            DispatchDone {
                slot: job.slot,
                gen: job.gen,
                seq: job.seq,
                mux_id: job.mux_id,
                request_len: job.request.len(),
                reply,
            },
        );
    }
}

/// State shared between the server handle, its reactor threads and the
/// dispatch workers.
struct Shared {
    shutdown: AtomicBool,
    config: ReactorConfig,
    /// Connections currently admitted — claimed by CAS in `accept_ready`
    /// and released on close, so [`ReactorConfig::max_connections`] is an
    /// exact bound even with reactor threads accepting concurrently.
    admitted: AtomicUsize,
    stats: Arc<ReactorStats>,
    /// Write ends of each thread's wake channel.
    wakers: Mutex<Vec<UnixStream>>,
    /// Per-reactor-thread completion inboxes, filled by dispatch workers.
    inboxes: Vec<Mutex<Vec<DispatchDone>>>,
}

impl Shared {
    fn deliver(&self, thread: usize, done: DispatchDone) {
        if let Some(inbox) = self.inboxes.get(thread) {
            inbox.lock().push(done);
        }
        if let Some(waker) = self.wakers.lock().get_mut(thread) {
            let _ = waker.write(&[1]);
        }
    }

    /// Atomically claims one admission slot; `false` once the fleet is at
    /// [`ReactorConfig::max_connections`]. The CAS loop means two reactor
    /// threads racing at `cap − 1` can never both admit.
    fn try_admit(&self) -> bool {
        let cap = self.config.max_connections;
        if cap == 0 {
            self.admitted.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        let mut current = self.admitted.load(Ordering::SeqCst);
        loop {
            if current >= cap {
                return false;
            }
            match self.admitted.compare_exchange_weak(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    fn release_admissions(&self, n: usize) {
        self.admitted.fetch_sub(n, Ordering::SeqCst);
    }
}

/// The epoll-driven TCP server: feeds a [`RequestHandler`] from
/// [`ReactorConfig::reactor_threads`] event-loop threads, however many
/// connections are open. See the [module docs](self) for the design.
pub struct ReactorServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds with the default [`ReactorConfig`].
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when binding or reactor
    /// setup fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<Self, RemoteError> {
        Self::bind_with(addr, handler, ReactorConfig::default())
    }

    /// Binds to `addr` (port 0 for ephemeral) and starts `config`'s worth
    /// of reactor threads sharing the listener.
    ///
    /// # Errors
    ///
    /// Returns a transport-kind [`RemoteError`] when binding or reactor
    /// setup fails.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn RequestHandler>,
        config: ReactorConfig,
    ) -> Result<Self, RemoteError> {
        let transport_err = |err: std::io::Error| RemoteError::transport(format!("reactor: {err}"));
        let listener = TcpListener::bind(addr).map_err(transport_err)?;
        listener.set_nonblocking(true).map_err(transport_err)?;
        let local_addr = listener.local_addr().map_err(transport_err)?;

        let threads = config.reactor_threads.max(1);
        let stats = Arc::new(ReactorStats::default());
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            config: config.clone(),
            admitted: AtomicUsize::new(0),
            stats: Arc::clone(&stats),
            wakers: Mutex::new(Vec::new()),
            inboxes: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let pool =
            (config.dispatch_workers > 0).then(|| WorkerPool::new(stats.queue_depth.clone()));

        let mut handles = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(config.dispatch_workers);
        let mut setup_err = None;
        for i in 0..threads {
            match spawn_reactor_thread(i, &listener, &handler, &shared, pool.clone()) {
                Ok(handle) => handles.push(handle),
                Err(err) => {
                    setup_err = Some(err);
                    break;
                }
            }
        }
        if setup_err.is_none() {
            if let Some(pool) = &pool {
                for i in 0..config.dispatch_workers {
                    let (pool, handler, shared) =
                        (Arc::clone(pool), Arc::clone(&handler), Arc::clone(&shared));
                    let spawned = std::thread::Builder::new()
                        .name(format!("brmi-dispatch-{i}"))
                        .spawn(move || worker_loop(&pool, &handler, &shared));
                    match spawned {
                        Ok(handle) => workers.push(handle),
                        Err(err) => {
                            setup_err = Some(err);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(err) = setup_err {
            // A partial fleet must not outlive the failed bind: stop the
            // threads already running (they hold listener clones, so the
            // port would otherwise stay open and accepting forever).
            shared.shutdown.store(true, Ordering::SeqCst);
            for waker in shared.wakers.lock().iter_mut() {
                let _ = waker.write(&[1]);
            }
            for handle in handles {
                let _ = handle.join();
            }
            if let Some(pool) = &pool {
                pool.shutdown();
            }
            for handle in workers {
                let _ = handle.join();
            }
            return Err(transport_err(err));
        }

        Ok(ReactorServer {
            local_addr,
            shared,
            threads: handles,
            pool,
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of currently established connections across all reactor
    /// threads.
    pub fn active_connections(&self) -> usize {
        self.shared.stats.active_connections() as usize
    }

    /// The reactor's observability cells.
    pub fn stats(&self) -> Arc<ReactorStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Registers this server's metric cells with `registry` (families
    /// `reactor_*`; see [`ReactorStats::register_metrics`]).
    pub fn register_metrics(&self, registry: &Registry) {
        self.shared.stats.register_metrics(registry);
    }

    /// Stops the event loops, closes every connection, drains the dispatch
    /// pool (queued jobs finish; their completions are discarded with the
    /// connections) and joins all reactor and worker threads. Idempotent;
    /// also called on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for waker in self.shared.wakers.lock().iter_mut() {
            let _ = waker.write(&[1]);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        if let Some(pool) = &self.pool {
            pool.shutdown();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServer")
            .field("local_addr", &self.local_addr)
            .field("active_connections", &self.active_connections())
            .finish_non_exhaustive()
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sets up one reactor thread: wake channel registered with `shared`, its
/// own listener clone, and the spawned event loop.
fn spawn_reactor_thread(
    index: usize,
    listener: &TcpListener,
    handler: &Arc<dyn RequestHandler>,
    shared: &Arc<Shared>,
    pool: Option<Arc<WorkerPool>>,
) -> std::io::Result<JoinHandle<()>> {
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    shared.wakers.lock().push(wake_tx);
    let thread = ReactorThread::new(
        index,
        listener.try_clone()?,
        wake_rx,
        Arc::clone(handler),
        Arc::clone(shared),
        pool,
    )?;
    std::thread::Builder::new()
        .name(format!("brmi-reactor-{index}"))
        .spawn(move || thread.run())
}

/// One connection's state machine: input accumulator, pending output and
/// the scratch buffer replies are encoded into before being queued.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed as complete frames.
    in_buf: Vec<u8>,
    /// Reply bytes not yet written to the socket; `write_pos` marks how
    /// far the kernel has taken them.
    out_buf: Vec<u8>,
    write_pos: usize,
    /// Reused encode scratch for replies.
    scratch: Vec<u8>,
    /// The epoll interest mask currently registered for this socket.
    interest: u32,
    /// The peer sent FIN: no more requests will arrive, but already-queued
    /// replies are still drained before the connection closes (a client
    /// may pipeline a burst, shutdown its write side, then read).
    read_closed: bool,
    /// Sequence stamped on the next frame submitted to the dispatch pool.
    next_seq: u64,
    /// Sequence whose reply is next in line for `out_buf` — workers may
    /// finish out of order, but replies flush in request order.
    flush_seq: u64,
    /// Replies that finished ahead of their turn (pool mode only; tiny in
    /// practice — bounded by the in-flight pipeline depth).
    parked: Vec<DispatchDone>,
    /// Request bytes queued at or executing in the pool, counted toward
    /// the [`HIGH_WATER`] backlog so queued work is backpressured exactly
    /// like unsent reply bytes.
    inflight_bytes: usize,
    /// Jobs submitted to the pool whose completions have not come back.
    inflight_jobs: usize,
}

impl Conn {
    /// Bytes this connection holds against the high-water mark: unsent
    /// replies plus requests parked in the dispatch pool.
    fn backlog(&self) -> usize {
        self.out_buf.len() - self.write_pos + self.inflight_bytes
    }
}

/// Header of one frame at the head of a connection's input buffer.
struct FrameHead {
    /// Correlation id when the frame arrived in a mux envelope.
    mux_id: Option<u64>,
    /// Offset of the frame body within the buffer.
    body_start: usize,
    /// Frame body length.
    len: usize,
}

/// Parses the frame header at the start of `buf`. `Ok(None)` means more
/// bytes are needed; `Err(())` is a protocol violation (over-limit length)
/// that closes the connection.
fn parse_frame_head(buf: &[u8]) -> Result<Option<FrameHead>, ()> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let raw = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let len = raw & !MUX_FLAG;
    if len > MAX_FRAME {
        return Err(());
    }
    let enveloped = raw & MUX_FLAG != 0;
    let body_start = if enveloped { 4 + MUX_ID_LEN } else { 4 };
    if buf.len() < body_start + len as usize {
        return Ok(None);
    }
    let mux_id = enveloped.then(|| {
        u64::from_le_bytes(
            buf[4..4 + MUX_ID_LEN]
                .try_into()
                .expect("length checked above"),
        )
    });
    Ok(Some(FrameHead {
        mux_id,
        body_start,
        len: len as usize,
    }))
}

/// Appends one encoded reply body to `out_buf`, length-prefixed — inside a
/// correlation envelope when the request carried one. `Err` means the
/// reply cannot travel (over-limit) and the connection must close.
fn queue_reply(out_buf: &mut Vec<u8>, mux_id: Option<u64>, body: &[u8]) -> Result<(), ()> {
    let len = u32::try_from(body.len()).map_err(|_| ())?;
    if len > MAX_FRAME {
        return Err(());
    }
    match mux_id {
        Some(id) => {
            out_buf.extend_from_slice(&(len | MUX_FLAG).to_le_bytes());
            out_buf.extend_from_slice(&id.to_le_bytes());
        }
        None => out_buf.extend_from_slice(&len.to_le_bytes()),
    }
    out_buf.extend_from_slice(body);
    Ok(())
}

enum ConnFate {
    Keep,
    Close,
}

struct ReactorThread {
    index: usize,
    epoll: Epoll,
    listener: TcpListener,
    wake: UnixStream,
    handler: Arc<dyn RequestHandler>,
    shared: Arc<Shared>,
    pool: Option<Arc<WorkerPool>>,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counters; bumped on close so completions from
    /// the pool cannot land on a recycled slot.
    gens: Vec<u64>,
    free: Vec<usize>,
    /// Reusable read staging buffer shared by every connection on this
    /// thread: zero-initialized once, so per-event reads cost no memset.
    chunk: Vec<u8>,
    /// Pre-encoded, length-prefixed `Overloaded` error frame written to a
    /// connection shed at accept.
    conn_shed_frame: Vec<u8>,
    /// Pre-encoded `Overloaded` reply body (no prefix — `queue_reply`
    /// adds it, plus the mux envelope when the request carried one) for
    /// requests shed at the dispatch-pool bound.
    request_shed_body: Vec<u8>,
    /// Deadline at which a stall-paused listener is re-armed; `None`
    /// while accepting normally.
    accept_stall: Option<Instant>,
    /// Next stall's pause length; doubles per consecutive stall, resets
    /// on a successful accept.
    accept_backoff: Duration,
}

impl ReactorThread {
    fn new(
        index: usize,
        listener: TcpListener,
        wake: UnixStream,
        handler: Arc<dyn RequestHandler>,
        shared: Arc<Shared>,
        pool: Option<Arc<WorkerPool>>,
    ) -> std::io::Result<ReactorThread> {
        use std::os::unix::io::AsRawFd;
        let epoll = Epoll::new()?;
        // EPOLLEXCLUSIVE: a new connection wakes one reactor thread, not
        // every thread sharing the listener (accept thundering herd).
        epoll.add(
            listener.as_raw_fd(),
            EPOLLIN | EPOLLEXCLUSIVE,
            TOKEN_LISTENER,
        )?;
        epoll.add(wake.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        let mut body = Vec::new();
        Frame::Error(ErrorEnvelope::from(&RemoteError::overloaded(
            "connection shed: server at max_connections",
        )))
        .encode_into(&mut body);
        let mut conn_shed_frame = Vec::new();
        queue_reply(&mut conn_shed_frame, None, &body).expect("shed frame fits");
        let mut request_shed_body = Vec::new();
        Frame::Error(ErrorEnvelope::from(&RemoteError::overloaded(
            "request shed: dispatch queue at max_queue_depth",
        )))
        .encode_into(&mut request_shed_body);
        Ok(ReactorThread {
            index,
            epoll,
            listener,
            wake,
            handler,
            shared,
            pool,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            chunk: vec![0; READ_CHUNK],
            conn_shed_frame,
            request_shed_body,
            accept_stall: None,
            accept_backoff: ACCEPT_BACKOFF_MIN,
        })
    }

    fn run(mut self) {
        let mut events = vec![sys::EpollEvent::zeroed(); 256];
        while let Ok(ready) = self.epoll.wait(&mut events, self.wait_timeout_ms()) {
            self.maybe_resume_accept();
            for event in &events[..ready] {
                let (token, flags) = (event.token(), event.events());
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        let mut sink = [0u8; 64];
                        while matches!(self.wake.read(&mut sink), Ok(n) if n > 0) {}
                        self.process_completions();
                    }
                    token => {
                        let idx = (token - TOKEN_CONN_BASE) as usize;
                        if let ConnFate::Close = self.conn_ready(idx, flags) {
                            self.close_conn(idx);
                        }
                    }
                }
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        // Drop closes every connection; keep the shared counts honest.
        let live = self.conns.iter().filter(|c| c.is_some()).count();
        self.shared.stats.connections.sub(live as i64);
        self.shared.release_admissions(live);
        if self.accept_stall.is_some() {
            self.shared.stats.accept_stalled.dec();
        }
    }

    /// `-1` (block indefinitely) unless this thread's listener is
    /// stall-paused, in which case the wait wakes at the re-arm deadline.
    fn wait_timeout_ms(&self) -> i32 {
        match self.accept_stall {
            None => -1,
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                i32::try_from(remaining.as_millis())
                    .unwrap_or(i32::MAX)
                    .max(1)
            }
        }
    }

    /// Re-arms a stall-paused listener once its backoff deadline passes,
    /// then drains whatever queued in the kernel backlog while paused. If
    /// exhaustion persists, `accept_ready` re-stalls with a doubled
    /// backoff.
    fn maybe_resume_accept(&mut self) {
        use std::os::unix::io::AsRawFd;
        let Some(deadline) = self.accept_stall else {
            return;
        };
        if Instant::now() < deadline {
            return;
        }
        if self
            .epoll
            .add(
                self.listener.as_raw_fd(),
                EPOLLIN | EPOLLEXCLUSIVE,
                TOKEN_LISTENER,
            )
            .is_err()
        {
            // Could not re-arm (likely still out of kernel resources):
            // stay paused for another backoff period.
            self.accept_stall = Some(Instant::now() + self.accept_backoff);
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            return;
        }
        self.accept_stall = None;
        self.shared.stats.accept_stalled.dec();
        self.accept_ready();
    }

    /// Pauses this thread's listener interest after accept-side resource
    /// exhaustion. Level-triggered epoll would otherwise re-signal the
    /// listener instantly and spin the event loop at 100% CPU while the
    /// process is out of fds.
    fn stall_accept(&mut self) {
        use std::os::unix::io::AsRawFd;
        if self.accept_stall.is_some() || self.epoll.delete(self.listener.as_raw_fd()).is_err() {
            return;
        }
        self.shared.stats.accept_stalled.inc();
        self.accept_stall = Some(Instant::now() + self.accept_backoff);
        self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
    }

    /// Applies every dispatch completion the workers have delivered to
    /// this thread: release the queued-work backpressure, flush replies in
    /// per-connection request order, and re-drive the connection (reply
    /// bytes freed may unblock reading or dispatching parked input).
    fn process_completions(&mut self) {
        let done = std::mem::take(&mut *self.shared.inboxes[self.index].lock());
        for item in done {
            let idx = item.slot;
            if self.gens.get(idx).copied() != Some(item.gen) {
                continue; // the connection closed while the job ran
            }
            let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
                continue;
            };
            let fate = self.apply_completion(&mut conn, item, idx);
            self.conns[idx] = Some(conn);
            if let ConnFate::Close = fate {
                self.close_conn(idx);
            }
        }
    }

    fn apply_completion(&mut self, conn: &mut Conn, done: DispatchDone, idx: usize) -> ConnFate {
        conn.inflight_jobs -= 1;
        conn.inflight_bytes -= done.request_len.max(MIN_JOB_CHARGE);
        conn.parked.push(done);
        if let ConnFate::Close = drain_parked(conn) {
            return ConnFate::Close;
        }
        self.drive(conn, 0, idx)
    }

    /// Accepts until `WouldBlock`, applying admission control: over
    /// [`ReactorConfig::max_connections`] the socket is shed (accepted,
    /// answered `Overloaded`, closed); on resource exhaustion the
    /// listener is stall-paused instead of spinning.
    fn accept_ready(&mut self) {
        if self.accept_stall.is_some() {
            return; // paused; maybe_resume_accept re-arms after the backoff
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    if !self.shared.try_admit() {
                        self.shed_connection(stream);
                        continue;
                    }
                    if self.register(stream).is_err() {
                        // Registration failure affects that socket only —
                        // but it must not be silent: the admission slot
                        // goes back and the drop is counted.
                        self.shared.release_admissions(1);
                        self.shared.stats.accept_failures.inc();
                        continue;
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => {
                    self.shared.stats.accept_failures.inc();
                    if is_resource_exhaustion(&err) {
                        self.stall_accept();
                    }
                    return;
                }
            }
        }
    }

    /// Best-effort shed reply for a connection over the admission cap:
    /// the socket was accepted (releasing its kernel backlog slot) but is
    /// never registered — one `Overloaded` error frame is written and the
    /// socket closes on drop. The write is nonblocking into a fresh
    /// socket buffer, so it cannot stall the reactor; if the peer already
    /// reset, the frame is lost along with the connection.
    fn shed_connection(&self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let _ = (&stream).write(&self.conn_shed_frame);
        self.shared.stats.connections_shed.inc();
    }

    fn register(&mut self, stream: TcpStream) -> std::io::Result<()> {
        use std::os::unix::io::AsRawFd;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let token = idx as u64 + TOKEN_CONN_BASE;
        if let Err(err) = self
            .epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
        {
            // The slot returns to the free list unused. Bump its
            // generation anyway: the invariant "a recycled slot never
            // matches an older job's generation" then holds by
            // construction, not by the accident that this occupant never
            // submitted a job.
            self.gens[idx] += 1;
            self.free.push(idx);
            return Err(err);
        }
        self.conns[idx] = Some(Conn {
            stream,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            write_pos: 0,
            scratch: Vec::new(),
            interest: EPOLLIN | EPOLLRDHUP,
            read_closed: false,
            next_seq: 0,
            flush_seq: 0,
            parked: Vec::new(),
            inflight_bytes: 0,
            inflight_jobs: 0,
        });
        self.shared.stats.connections.inc();
        Ok(())
    }

    fn close_conn(&mut self, idx: usize) {
        use std::os::unix::io::AsRawFd;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            // Stale completions from jobs still in flight are discarded by
            // the generation check, so the slot can be reused immediately.
            self.gens[idx] += 1;
            self.free.push(idx);
            self.shared.stats.connections.dec();
            self.shared.release_admissions(1);
        }
    }

    /// Advances one connection's state machine for an epoll readiness
    /// report: read what the socket has, dispatch every complete frame,
    /// flush what the socket will take.
    fn conn_ready(&mut self, idx: usize, flags: u32) -> ConnFate {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return ConnFate::Keep;
        };
        let fate = self.drive(&mut conn, flags, idx);
        match fate {
            ConnFate::Keep => {
                self.conns[idx] = Some(conn);
                ConnFate::Keep
            }
            ConnFate::Close => {
                // Put it back so close_conn can do the bookkeeping.
                self.conns[idx] = Some(conn);
                ConnFate::Close
            }
        }
    }

    fn drive(&mut self, conn: &mut Conn, flags: u32, idx: usize) -> ConnFate {
        // EPOLLHUP means both directions are gone (reset or full close):
        // nothing queued can be delivered any more. A bare EPOLLRDHUP is
        // only the peer's FIN — requests already buffered must still be
        // answered, so it is handled through the read path below.
        if flags & (EPOLLERR | EPOLLHUP) != 0 {
            return ConnFate::Close;
        }
        // Read only while the backlog (unsent replies + pool-queued work)
        // is under the high-water mark; a paused connection has EPOLLIN
        // deregistered, so its input stops accumulating in the kernel, not
        // in server memory.
        if !conn.read_closed && flags & (EPOLLIN | EPOLLRDHUP) != 0 && conn.backlog() <= HIGH_WATER
        {
            if let ReadOutcome::Closed = read_available(conn, &mut self.chunk) {
                conn.read_closed = true;
            }
        }
        // Alternate dispatch and flush until quiescent: stop only when no
        // complete frame is waiting, or backpressure persists because the
        // socket will not take more (an EPOLLOUT wake resumes us). Exiting
        // with dispatchable frames and an empty, unregistered socket would
        // strand the connection — no event would ever fire again.
        loop {
            if let ConnFate::Close = self.dispatch_frames(conn, idx) {
                return ConnFate::Close;
            }
            if let ConnFate::Close = flush_writes(conn) {
                return ConnFate::Close;
            }
            if conn.backlog() > HIGH_WATER || !has_complete_frame(&conn.in_buf) {
                break;
            }
        }
        // After a FIN the connection lives exactly as long as it still has
        // replies to deliver — queued in out_buf or still in the dispatch
        // pool. (The loop above guarantees nothing dispatchable remains
        // when the backlog is drained, so an empty out_buf and an idle
        // pipeline really mean all replies went out; leftover in_buf bytes
        // can only be a forever-incomplete frame.)
        if conn.read_closed && conn.out_buf.len() == conn.write_pos && conn.inflight_jobs == 0 {
            return ConnFate::Close;
        }
        self.update_interest(conn, idx)
    }

    /// Consumes every complete frame in `in_buf` (until backpressure).
    /// Inline mode dispatches each through the zero-copy handler path and
    /// queues the reply; pool mode stamps the frame with the connection's
    /// next sequence number and submits it to the dispatch workers (the
    /// completion path queues replies in sequence order).
    fn dispatch_frames(&mut self, conn: &mut Conn, idx: usize) -> ConnFate {
        let mut consumed = 0usize;
        let fate = loop {
            if conn.backlog() > HIGH_WATER {
                break ConnFate::Keep;
            }
            let pending = &conn.in_buf[consumed..];
            let head = match parse_frame_head(pending) {
                Ok(Some(head)) => head,
                Ok(None) => break ConnFate::Keep,
                Err(()) => break ConnFate::Close,
            };
            let total = head.body_start + head.len;
            let body = &pending[head.body_start..total];
            if let Some(pool) = &self.pool {
                // Validation decode before the hand-off, so a malformed
                // frame closes the connection immediately — exactly the
                // inline path — instead of executing pipelined frames
                // queued behind it. The borrowed decode is cheap next to
                // the (blocking) handler work the pool exists for.
                if FrameRef::from_wire_bytes(body).is_err() {
                    break ConnFate::Close;
                }
                let bound = self.shared.config.max_queue_depth;
                if bound > 0 && pool.inflight() >= bound {
                    // Shed instead of queueing behind a saturated pool:
                    // the reply is the pre-encoded Overloaded error,
                    // stamped with this request's sequence number so it
                    // leaves in request order behind in-flight replies.
                    // Nothing is charged to the backpressure account —
                    // the request never enters the pool.
                    self.shared.stats.requests_shed.inc();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.parked.push(DispatchDone {
                        slot: idx,
                        gen: self.gens[idx],
                        seq,
                        mux_id: head.mux_id,
                        request_len: 0,
                        reply: Some(self.request_shed_body.clone()),
                    });
                    if let ConnFate::Close = drain_parked(conn) {
                        break ConnFate::Close;
                    }
                    consumed += total;
                    continue;
                }
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.inflight_jobs += 1;
                // Charge at least MIN_JOB_CHARGE per queued job: pure
                // body-byte accounting would let a peer pipelining tiny
                // frames park ~HIGH_WATER *jobs* (each with real struct
                // and allocation overhead) instead of ~HIGH_WATER bytes.
                conn.inflight_bytes += body.len().max(MIN_JOB_CHARGE);
                pool.submit(DispatchJob {
                    thread: self.index,
                    slot: idx,
                    gen: self.gens[idx],
                    seq,
                    mux_id: head.mux_id,
                    request: body.to_vec(),
                });
            } else {
                let reply = match FrameRef::from_wire_bytes(body) {
                    Ok(frame) => self.handler.handle_ref(frame),
                    Err(_) => break ConnFate::Close,
                };
                reply.encode_into(&mut conn.scratch);
                if queue_reply(&mut conn.out_buf, head.mux_id, &conn.scratch).is_err() {
                    break ConnFate::Close;
                }
            }
            consumed += total;
        };
        if consumed > 0 {
            conn.in_buf.drain(..consumed);
            trim_buf(&mut conn.scratch);
            // An outlier inbound frame must not pin its capacity for the
            // connection's lifetime; only safe once no live bytes remain.
            if conn.in_buf.is_empty() {
                trim_buf(&mut conn.in_buf);
            }
        }
        fate
    }

    /// Re-registers the connection's epoll interest when it changed:
    /// `EPOLLOUT` only while a partial write is pending, `EPOLLIN` only
    /// while the backlog (unsent replies + pool-queued work) is under the
    /// high-water mark and the peer has not sent FIN.
    fn update_interest(&mut self, conn: &mut Conn, idx: usize) -> ConnFate {
        use std::os::unix::io::AsRawFd;
        let backlog = conn.backlog();
        let mut interest = 0;
        if !conn.read_closed && backlog <= HIGH_WATER {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.out_buf.len() > conn.write_pos {
            interest |= EPOLLOUT;
        }
        if interest == conn.interest {
            return ConnFate::Keep;
        }
        // Losing EPOLLIN with the peer still sending means the backlog
        // crossed the high-water mark: one backpressure pause begins here.
        if conn.interest & EPOLLIN != 0 && interest & EPOLLIN == 0 && !conn.read_closed {
            self.shared.stats.backpressure_pauses.inc();
        }
        let token = idx as u64 + TOKEN_CONN_BASE;
        match self.epoll.modify(conn.stream.as_raw_fd(), interest, token) {
            Ok(()) => {
                conn.interest = interest;
                ConnFate::Keep
            }
            Err(_) => ConnFate::Close,
        }
    }
}

/// Queues every parked reply whose turn in the per-connection request
/// order has come. A `None` reply (worker failed to decode — defense in
/// depth, the reactor validates before submitting) closes the connection
/// when its slot in the order comes up.
fn drain_parked(conn: &mut Conn) -> ConnFate {
    while let Some(pos) = conn
        .parked
        .iter()
        .position(|item| item.seq == conn.flush_seq)
    {
        let next = conn.parked.swap_remove(pos);
        let Some(reply) = next.reply else {
            return ConnFate::Close;
        };
        if queue_reply(&mut conn.out_buf, next.mux_id, &reply).is_err() {
            return ConnFate::Close;
        }
        conn.flush_seq += 1;
    }
    ConnFate::Keep
}

/// Accept errors meaning the *process* (or kernel) is out of resources —
/// `ENOMEM`, `ENFILE`, `EMFILE`, `ENOBUFS` — rather than something wrong
/// with one peer (e.g. `ECONNABORTED`). Retrying immediately cannot
/// succeed, so the reactor pauses accepting and re-arms after a backoff.
fn is_resource_exhaustion(err: &std::io::Error) -> bool {
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = 105;
    matches!(err.raw_os_error(), Some(ENOMEM | ENFILE | EMFILE | ENOBUFS))
}

/// Whether `in_buf` starts with a dispatchable frame. An over-limit
/// length prefix counts as dispatchable so the dispatch loop runs and
/// closes the connection rather than waiting for bytes that never come.
fn has_complete_frame(in_buf: &[u8]) -> bool {
    !matches!(parse_frame_head(in_buf), Ok(None))
}

enum ReadOutcome {
    Progress,
    Closed,
}

/// Reads whatever the socket currently has into `in_buf` via the reactor
/// thread's reusable `chunk` (one `read` syscall per chunk — the declared
/// frame length is never pre-allocated, and nothing is re-zeroed on the
/// hot path), up to [`READ_BUDGET`] bytes per call.
fn read_available(conn: &mut Conn, chunk: &mut [u8]) -> ReadOutcome {
    let start = conn.in_buf.len();
    loop {
        if conn.in_buf.len() - start >= READ_BUDGET {
            return ReadOutcome::Progress;
        }
        match conn.stream.read(chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => {
                conn.in_buf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    // Short read: the socket is (momentarily) drained.
                    return ReadOutcome::Progress;
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                return ReadOutcome::Progress;
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

/// Writes as much pending output as the socket will take. Fully drained
/// buffers are reset and trimmed; a buffer that never quite empties (a
/// peer reading over a slow link) has its flushed prefix compacted away
/// once it exceeds [`crate::framing::KEEP_BUF`], so per-connection memory
/// tracks the *unsent* backlog rather than everything ever sent.
fn flush_writes(conn: &mut Conn) -> ConnFate {
    while conn.write_pos < conn.out_buf.len() {
        match conn.stream.write(&conn.out_buf[conn.write_pos..]) {
            Ok(0) => return ConnFate::Close,
            Ok(n) => conn.write_pos += n,
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
    if conn.write_pos == conn.out_buf.len() {
        conn.out_buf.clear();
        conn.write_pos = 0;
        trim_buf(&mut conn.out_buf);
    } else if conn.write_pos > crate::framing::KEEP_BUF {
        conn.out_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    ConnFate::Keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::TcpPool;
    use crate::Transport;
    use brmi_wire::protocol::Frame;
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

    fn echo_server() -> ReactorServer {
        ReactorServer::bind("127.0.0.1:0", Arc::new(EchoHandler)).unwrap()
    }

    #[test]
    fn request_reply_over_the_reactor() {
        let server = echo_server();
        let client = TcpPool::connect(server.local_addr()).unwrap();
        let reply = client.request(call(vec![Value::I32(42)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(42)])));
    }

    #[test]
    fn sequential_requests_reuse_the_connection() {
        let server = echo_server();
        let client = TcpPool::connect(server.local_addr()).unwrap();
        for i in 0..50 {
            let reply = client.request(call(vec![Value::I32(i)])).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(i)])));
        }
        assert_eq!(server.active_connections(), 1);
    }

    #[test]
    fn pipelined_frames_in_one_burst_all_get_replies() {
        let server = echo_server();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        // Write 10 frames back-to-back before reading anything.
        let mut burst = Vec::new();
        for i in 0..10 {
            let mut payload = Vec::new();
            call(vec![Value::I32(i)]).encode_into(&mut payload);
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
        }
        stream.write_all(&burst).unwrap();
        let mut read_buf = Vec::new();
        for i in 0..10 {
            assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            let reply = Frame::from_wire_bytes(&read_buf).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(i)])));
        }
    }

    /// A client may pipeline a burst, shut down its write side, and only
    /// then read: the FIN must not discard queued replies.
    #[test]
    fn half_close_still_drains_queued_replies() {
        let server = echo_server();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = Vec::new();
        for i in 0..5 {
            let mut payload = Vec::new();
            call(vec![Value::I32(i)]).encode_into(&mut payload);
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
        }
        stream.write_all(&burst).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut read_buf = Vec::new();
        for i in 0..5 {
            assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            let reply = Frame::from_wire_bytes(&read_buf).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(i)])));
        }
        assert!(!crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
    }

    /// Backpressure regression: a pipelined burst whose replies total far
    /// more than 2 × HIGH_WATER, written before any reply is read and
    /// ended with a half-close. Every reply must still arrive — frames
    /// parked in `in_buf` behind the high-water mark may not be stranded
    /// when the write side drains, nor discarded at the FIN.
    #[test]
    fn deep_pipelined_burst_through_backpressure_and_half_close() {
        deep_pipelined_burst(ReactorConfig::default());
    }

    /// The same backlog discipline must hold when dispatch runs on the
    /// worker pool: queued jobs count toward HIGH_WATER, and replies
    /// flush in request order across the reorder buffer.
    #[test]
    fn deep_pipelined_burst_through_worker_pool_backpressure() {
        deep_pipelined_burst(ReactorConfig {
            reactor_threads: 2,
            dispatch_workers: 3,
            ..ReactorConfig::default()
        });
    }

    fn deep_pipelined_burst(config: ReactorConfig) {
        const FRAMES: i32 = 40;
        const BLOB: usize = 128 * 1024; // 40 × 128 KB ≈ 5 MB each way
        let server =
            ReactorServer::bind_with("127.0.0.1:0", Arc::new(EchoHandler), config).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let reader = {
            let mut stream = stream.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut read_buf = Vec::new();
                for i in 0..FRAMES {
                    assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
                    let reply = Frame::from_wire_bytes(&read_buf).unwrap();
                    let expected = vec![Value::I32(i), Value::Bytes(vec![i as u8; BLOB])];
                    assert_eq!(reply, Frame::Return(Value::List(expected)));
                }
                assert!(!crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            })
        };
        let mut payload = Vec::new();
        for i in 0..FRAMES {
            call(vec![Value::I32(i), Value::Bytes(vec![i as u8; BLOB])]).encode_into(&mut payload);
            stream
                .write_all(&(payload.len() as u32).to_le_bytes())
                .unwrap();
            stream.write_all(&payload).unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn large_payload_round_trips_through_partial_writes() {
        let server = echo_server();
        let client = TcpPool::connect(server.local_addr()).unwrap();
        // Several megabytes forces the reactor through the EPOLLOUT path.
        let blob = Value::Bytes((0..4_000_000u32).map(|i| i as u8).collect());
        let reply = client.request(call(vec![blob.clone()])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![blob])));
    }

    #[test]
    fn oversized_length_prefix_closes_only_that_connection() {
        let server = echo_server();
        let mut bad = std::net::TcpStream::connect(server.local_addr()).unwrap();
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
        bad.write_all(&[0u8; 8]).unwrap();
        // The malformed connection dies...
        let mut buf = Vec::new();
        assert!(!crate::framing::read_frame_bytes(&mut bad, &mut buf).unwrap_or(false));
        // ...while a well-behaved one keeps working.
        let good = TcpPool::connect(server.local_addr()).unwrap();
        let reply = good.request(call(vec![Value::I32(7)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(7)])));
    }

    #[test]
    fn undecodable_frame_closes_only_that_connection() {
        let server = echo_server();
        let mut bad = std::net::TcpStream::connect(server.local_addr()).unwrap();
        bad.write_all(&8u32.to_le_bytes()).unwrap();
        bad.write_all(&[0xFF; 8]).unwrap();
        let mut buf = Vec::new();
        assert!(!crate::framing::read_frame_bytes(&mut bad, &mut buf).unwrap_or(false));
        let good = TcpPool::connect(server.local_addr()).unwrap();
        assert!(good.request(call(vec![])).is_ok());
    }

    #[test]
    fn many_concurrent_clients_on_two_reactor_threads() {
        let server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::new(EchoHandler),
            ReactorConfig {
                reactor_threads: 2,
                dispatch_workers: 0,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..32)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = TcpPool::connect(addr).unwrap();
                    for j in 0..20 {
                        let value = Value::I32(i * 1000 + j);
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
    fn connection_count_tracks_connects_and_disconnects() {
        let server = echo_server();
        assert_eq!(server.active_connections(), 0);
        let a = TcpPool::connect(server.local_addr()).unwrap();
        let b = TcpPool::connect(server.local_addr()).unwrap();
        a.request(call(vec![])).unwrap();
        b.request(call(vec![])).unwrap();
        assert_eq!(server.active_connections(), 2);
        drop(b);
        // The reactor notices the FIN on its next wakeup.
        for _ in 0..100 {
            if server.active_connections() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.active_connections(), 1);
        drop(a);
        drop(server);
    }

    #[test]
    fn reactor_stats_surface_in_the_unified_registry() {
        use brmi_obs::Snapshot as _;
        let server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::new(EchoHandler),
            ReactorConfig {
                reactor_threads: 1,
                dispatch_workers: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let registry = Registry::new();
        server.register_metrics(&registry);

        let a = TcpPool::connect(server.local_addr()).unwrap();
        let b = TcpPool::connect(server.local_addr()).unwrap();
        a.request(call(vec![])).unwrap();
        b.request(call(vec![])).unwrap();

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge("reactor_active_connections"), 2);
        // Both requests have been answered, so no dispatch job is queued.
        assert_eq!(snapshot.gauge("reactor_worker_queue_depth"), 0);
        assert_eq!(snapshot.counter("reactor_backpressure_pauses"), 0);
        // Unbounded config: nothing shed, nothing dropped, no stall.
        assert_eq!(snapshot.counter("reactor_connections_shed"), 0);
        assert_eq!(snapshot.counter("reactor_requests_shed"), 0);
        assert_eq!(snapshot.counter("reactor_accept_failures"), 0);
        assert_eq!(snapshot.gauge("reactor_accept_stalled"), 0);
        // The same cells through the Snapshot trait, for callers that
        // only hold the stats handle.
        assert_eq!(
            server
                .stats()
                .snapshot()
                .gauge("reactor_active_connections"),
            2
        );
        drop((a, b));
    }

    /// A peer that writes a multi-megabyte pipelined burst without reading
    /// replies forces the out-buffer past HIGH_WATER: the reactor must
    /// pause reads (counted on `reactor_backpressure_pauses`) and resume
    /// them once the peer finally drains — no reply may be lost.
    #[test]
    fn slow_consumer_backpressure_is_counted_and_reads_resume() {
        const FRAMES: i32 = 32;
        const BLOB: usize = 512 * 1024; // 16 MB of replies ≫ HIGH_WATER
        let server = echo_server();
        assert_eq!(server.stats().backpressure_pauses(), 0);
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let writer = {
            let mut stream = stream.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut payload = Vec::new();
                for i in 0..FRAMES {
                    call(vec![Value::I32(i), Value::Bytes(vec![i as u8; BLOB])])
                        .encode_into(&mut payload);
                    stream
                        .write_all(&(payload.len() as u32).to_le_bytes())
                        .unwrap();
                    stream.write_all(&payload).unwrap();
                }
                stream.shutdown(std::net::Shutdown::Write).unwrap();
            })
        };
        // Hold off reading until the pause is observed: with nothing
        // draining the socket, queued replies must eventually trip the
        // high-water mark.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while server.stats().backpressure_pauses() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no backpressure pause was ever counted"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Drain: every reply still arrives, in order.
        let mut read_buf = Vec::new();
        for i in 0..FRAMES {
            assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            let reply = Frame::from_wire_bytes(&read_buf).unwrap();
            let expected = vec![Value::I32(i), Value::Bytes(vec![i as u8; BLOB])];
            assert_eq!(reply, Frame::Return(Value::List(expected)));
        }
        assert!(!crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
        writer.join().unwrap();
        assert!(server.stats().backpressure_pauses() >= 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_threads() {
        let mut server = echo_server();
        let client = TcpPool::connect(server.local_addr()).unwrap();
        client.request(call(vec![Value::I32(1)])).unwrap();
        server.shutdown();
        server.shutdown();
        assert!(server.threads.is_empty());
        assert!(client.request(call(vec![])).is_err());
    }

    /// Test handler with a blocking method: `"slow"` parks on a channel
    /// until the test releases it, `"fast"` reports its completion, and
    /// everything echoes its arguments.
    struct SlowFastHandler {
        slow_entered: std::sync::atomic::AtomicUsize,
        slow_gate: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        fast_done: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    }

    impl SlowFastHandler {
        fn new() -> (
            Arc<Self>,
            std::sync::mpsc::Sender<()>,
            std::sync::mpsc::Receiver<()>,
        ) {
            let (release, slow_gate) = std::sync::mpsc::channel();
            let (fast_done, fast_done_rx) = std::sync::mpsc::channel();
            let handler = Arc::new(SlowFastHandler {
                slow_entered: std::sync::atomic::AtomicUsize::new(0),
                slow_gate: std::sync::Mutex::new(slow_gate),
                fast_done: std::sync::Mutex::new(fast_done),
            });
            (handler, release, fast_done_rx)
        }
    }

    impl RequestHandler for SlowFastHandler {
        fn handle(&self, frame: Frame) -> Frame {
            match frame {
                Frame::Call { method, args, .. } => {
                    if method == "slow" {
                        self.slow_entered.fetch_add(1, Ordering::SeqCst);
                        let _ = self.slow_gate.lock().unwrap().recv();
                    } else if method == "fast" {
                        let _ = self.fast_done.lock().unwrap().send(());
                    }
                    Frame::Return(Value::List(args))
                }
                _ => Frame::Return(Value::Null),
            }
        }
    }

    fn named_call(method: &str, args: Vec<Value>) -> Frame {
        Frame::Call {
            key: None,
            target: ObjectId(1),
            method: method.into(),
            args,
        }
    }

    /// The worker-pool contract: a handler blocked on one connection must
    /// not delay another connection served by the *same* (single) reactor
    /// thread. Deterministic — the fast call completes while the slow one
    /// is provably parked inside the handler.
    #[test]
    fn blocking_handler_on_workers_does_not_stall_other_connections() {
        let (handler, release, _fast_done) = SlowFastHandler::new();
        let mut server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&handler) as Arc<dyn RequestHandler>,
            ReactorConfig {
                reactor_threads: 1,
                dispatch_workers: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let slow_caller = std::thread::spawn(move || {
            let client = TcpPool::connect(addr).unwrap();
            client.request(named_call("slow", vec![Value::I32(1)]))
        });
        while handler.slow_entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // The slow handler is parked inside the pool; the lone reactor
        // thread must still serve a different connection end to end.
        let fast = TcpPool::connect(addr).unwrap();
        let reply = fast
            .request(named_call("fast", vec![Value::I32(2)]))
            .unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(2)])));
        release.send(()).unwrap();
        let slow_reply = slow_caller.join().unwrap().unwrap();
        assert_eq!(slow_reply, Frame::Return(Value::List(vec![Value::I32(1)])));
        server.shutdown();
    }

    /// Replies must leave a connection in request order even when a later
    /// pipelined frame finishes first on the worker pool.
    #[test]
    fn worker_pool_preserves_pipelined_reply_order() {
        let (handler, release, fast_done) = SlowFastHandler::new();
        let server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&handler) as Arc<dyn RequestHandler>,
            ReactorConfig {
                reactor_threads: 1,
                dispatch_workers: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = Vec::new();
        for frame in [
            named_call("slow", vec![Value::I32(1)]),
            named_call("fast", vec![Value::I32(2)]),
        ] {
            let mut payload = Vec::new();
            frame.encode_into(&mut payload);
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
        }
        stream.write_all(&burst).unwrap();
        // Prove the fast frame *executed* while the slow one was parked...
        fast_done.recv().unwrap();
        assert_eq!(handler.slow_entered.load(Ordering::SeqCst), 1);
        release.send(()).unwrap();
        // ...yet the replies arrive in request order.
        let mut read_buf = Vec::new();
        for expected in [Value::I32(1), Value::I32(2)] {
            assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            let reply = Frame::from_wire_bytes(&read_buf).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![expected])));
        }
    }

    /// Correlation-enveloped requests get their ids echoed on the reply —
    /// on both the inline and the worker-pool dispatch paths, mixed freely
    /// with plain frames on the same connection.
    #[test]
    fn mux_envelopes_echo_correlation_ids_inline_and_pooled() {
        for workers in [0usize, 2] {
            let server = ReactorServer::bind_with(
                "127.0.0.1:0",
                Arc::new(EchoHandler),
                ReactorConfig {
                    reactor_threads: 1,
                    dispatch_workers: workers,
                    ..ReactorConfig::default()
                },
            )
            .unwrap();
            let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
            let ids = [0xDEAD_0001u64, u64::MAX, 7];
            let mut burst = Vec::new();
            for (i, id) in ids.iter().enumerate() {
                let mut payload = Vec::new();
                call(vec![Value::I32(i as i32)]).encode_into(&mut payload);
                burst.extend_from_slice(&((payload.len() as u32) | MUX_FLAG).to_le_bytes());
                burst.extend_from_slice(&id.to_le_bytes());
                burst.extend_from_slice(&payload);
            }
            // A plain (unenveloped) frame rides the same connection.
            let mut payload = Vec::new();
            call(vec![Value::I32(99)]).encode_into(&mut payload);
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
            stream.write_all(&burst).unwrap();

            for (i, id) in ids.iter().enumerate() {
                let mut header = [0u8; 4];
                stream.read_exact(&mut header).unwrap();
                let raw = u32::from_le_bytes(header);
                assert_ne!(raw & MUX_FLAG, 0, "reply must carry the envelope");
                let mut id_buf = [0u8; MUX_ID_LEN];
                stream.read_exact(&mut id_buf).unwrap();
                assert_eq!(u64::from_le_bytes(id_buf), *id, "echoed id");
                let mut body = vec![0u8; (raw & !MUX_FLAG) as usize];
                stream.read_exact(&mut body).unwrap();
                let reply = Frame::from_wire_bytes(&body).unwrap();
                assert_eq!(
                    reply,
                    Frame::Return(Value::List(vec![Value::I32(i as i32)]))
                );
            }
            let mut read_buf = Vec::new();
            assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            let reply = Frame::from_wire_bytes(&read_buf).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(99)])));
        }
    }

    /// Shed semantics (a): a connection over `max_connections` receives
    /// one `Overloaded` error frame and then EOF — deterministic, because
    /// the shed client writes nothing, so no reset can race the reply.
    #[test]
    fn connection_over_max_connections_is_shed_with_overloaded_frame() {
        let server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::new(EchoHandler),
            ReactorConfig {
                max_connections: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let a = TcpPool::connect(server.local_addr()).unwrap();
        let b = TcpPool::connect(server.local_addr()).unwrap();
        a.request(call(vec![Value::I32(1)])).unwrap();
        b.request(call(vec![Value::I32(2)])).unwrap();
        assert_eq!(server.active_connections(), 2);

        let mut shed = std::net::TcpStream::connect(server.local_addr()).unwrap();
        shed.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        assert!(crate::framing::read_frame_bytes(&mut shed, &mut buf).unwrap());
        match Frame::from_wire_bytes(&buf).unwrap() {
            Frame::Error(env) => assert_eq!(env.kind, "overloaded"),
            other => panic!("expected overloaded error, got {other:?}"),
        }
        assert!(
            !crate::framing::read_frame_bytes(&mut shed, &mut buf).unwrap(),
            "shed connection must close after the error frame"
        );
        assert_eq!(server.stats().connections_shed(), 1);

        // Closing an admitted connection frees its slot for a newcomer.
        drop(b);
        while server.active_connections() > 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let c = TcpPool::connect(server.local_addr()).unwrap();
        let reply = c.request(call(vec![Value::I32(3)])).unwrap();
        assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(3)])));
        drop((a, c));
    }

    /// Shed semantics (b): with the dispatch pool saturated at
    /// `max_queue_depth`, later pipelined requests shed — yet every
    /// reply, echo and Overloaded alike, arrives in request order.
    /// Deterministic: the gate keeps all admitted handlers parked, so the
    /// pool's outstanding count cannot dip while the burst dispatches.
    #[test]
    fn saturated_worker_queue_sheds_requests_in_reply_order() {
        let (handler, release, _fast_done) = SlowFastHandler::new();
        let server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&handler) as Arc<dyn RequestHandler>,
            ReactorConfig {
                reactor_threads: 1,
                dispatch_workers: 1,
                max_queue_depth: 3,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = Vec::new();
        for i in 0..5 {
            let mut payload = Vec::new();
            named_call("slow", vec![Value::I32(i)]).encode_into(&mut payload);
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
        }
        stream.write_all(&burst).unwrap();
        // Frames 0–2 fill the pool; 3 and 4 must shed. Wait for both shed
        // counts before releasing the gate for the three admitted jobs.
        while server.stats().requests_shed() < 2 {
            std::thread::yield_now();
        }
        for _ in 0..3 {
            release.send(()).unwrap();
        }
        let mut read_buf = Vec::new();
        for i in 0..3 {
            assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            assert_eq!(
                Frame::from_wire_bytes(&read_buf).unwrap(),
                Frame::Return(Value::List(vec![Value::I32(i)]))
            );
        }
        for _ in 0..2 {
            assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
            match Frame::from_wire_bytes(&read_buf).unwrap() {
                Frame::Error(env) => assert_eq!(env.kind, "overloaded"),
                other => panic!("expected overloaded error, got {other:?}"),
            }
        }
        assert_eq!(server.stats().requests_shed(), 2);
        // The connection survives shedding: the pool drained, so a fresh
        // request is admitted and served.
        let mut payload = Vec::new();
        named_call("fast", vec![Value::I32(9)]).encode_into(&mut payload);
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(&payload).unwrap();
        assert!(crate::framing::read_frame_bytes(&mut stream, &mut read_buf).unwrap());
        assert_eq!(
            Frame::from_wire_bytes(&read_buf).unwrap(),
            Frame::Return(Value::List(vec![Value::I32(9)]))
        );
    }

    /// Regression for slot/generation bookkeeping: a slot recycled while
    /// its previous occupant's job still runs in the pool must discard
    /// the stale completion — otherwise the new connection would receive
    /// the old connection's reply as its own (both carry seq 0).
    #[test]
    fn recycled_slot_discards_stale_pool_completion() {
        let (handler, release, _fast_done) = SlowFastHandler::new();
        let server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&handler) as Arc<dyn RequestHandler>,
            ReactorConfig {
                reactor_threads: 1,
                dispatch_workers: 1,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        // Conn A pipelines a slow call followed by an undecodable frame:
        // the protocol error closes A (bumping its slot's generation)
        // while the slow job is still queued or executing in the pool.
        let mut a = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut payload = Vec::new();
        named_call("slow", vec![Value::I32(1)]).encode_into(&mut payload);
        let mut burst = Vec::new();
        burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        burst.extend_from_slice(&payload);
        burst.extend_from_slice(&8u32.to_le_bytes());
        burst.extend_from_slice(&[0xFF; 8]);
        a.write_all(&burst).unwrap();
        while server.active_connections() > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Conn B reuses the freed slot (single reactor thread, LIFO free
        // list) with sequence numbers starting at 0 — exactly what A's
        // in-flight job carries.
        let mut b = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut payload = Vec::new();
        named_call("fast", vec![Value::I32(2)]).encode_into(&mut payload);
        b.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        b.write_all(&payload).unwrap();
        // Unpark A's slow handler: its completion lands on the recycled
        // slot and must be discarded by the generation check. B's own
        // reply — the lone worker runs it next — must be the first and
        // only frame B receives.
        release.send(()).unwrap();
        let mut read_buf = Vec::new();
        assert!(crate::framing::read_frame_bytes(&mut b, &mut read_buf).unwrap());
        assert_eq!(
            Frame::from_wire_bytes(&read_buf).unwrap(),
            Frame::Return(Value::List(vec![Value::I32(2)]))
        );
        drop(a);
    }

    #[test]
    fn resource_exhaustion_classifier_matches_fd_errors_only() {
        for code in [12, 23, 24, 105] {
            assert!(is_resource_exhaustion(&std::io::Error::from_raw_os_error(
                code
            )));
        }
        // ECONNABORTED (103) and EAGAIN (11) are per-peer / transient.
        for code in [11, 103] {
            assert!(!is_resource_exhaustion(&std::io::Error::from_raw_os_error(
                code
            )));
        }
    }

    /// Worker-pool shutdown must drain queued jobs and join cleanly while
    /// ordinary traffic is in flight.
    #[test]
    fn worker_pool_shutdown_joins_workers() {
        let mut server = ReactorServer::bind_with(
            "127.0.0.1:0",
            Arc::new(EchoHandler),
            ReactorConfig {
                reactor_threads: 2,
                dispatch_workers: 4,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let client = TcpPool::connect(server.local_addr()).unwrap();
        for i in 0..20 {
            let reply = client.request(call(vec![Value::I32(i)])).unwrap();
            assert_eq!(reply, Frame::Return(Value::List(vec![Value::I32(i)])));
        }
        server.shutdown();
        server.shutdown();
        assert!(server.workers.is_empty());
        assert!(server.threads.is_empty());
    }
}
