//! Rigs shared by the case-study tests, the socket workloads and the
//! figure sweeps.
//!
//! * [`AppRig`] — a server with batching installed, a [`SimTransport`]
//!   with traffic counters, and a connection with the application root
//!   looked up. [`AppRig::serve`] links client and server in process;
//!   [`AppRig::simulated`] charges a [`NetworkProfile`] to the rig's
//!   [`VirtualClock`], the testbed of every paper figure.
//! * [`NoopOrigin`] — the no-op service on a batching server, in process
//!   or behind a reactor: the origin of the stress workloads.
//! * [`run_wave`] — N client threads released together behind one
//!   barrier, timed from release to the last join.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use brmi::BatchExecutor;
use brmi_rmi::{Connection, RemoteObject, RemoteRef, RmiServer};
use brmi_transport::clock::VirtualClock;
#[cfg(target_os = "linux")]
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_transport::sim::SimTransport;
use brmi_transport::{NetworkProfile, TransportStats};
use brmi_wire::codec::IntWidth;
use brmi_wire::RemoteError;

use crate::noop::{NoopServer, NoopSkeleton};

/// A ready-to-use client/server pair over a [`SimTransport`].
pub struct AppRig {
    /// The server (batching installed, loopback costs charged).
    pub server: Arc<RmiServer>,
    /// The batch executor, for session introspection.
    pub executor: Arc<BatchExecutor>,
    /// Client connection.
    pub conn: Connection,
    /// Reference to the exported application root.
    pub root: RemoteRef,
    /// The virtual clock accumulating simulated time (it stays at zero in
    /// process).
    pub clock: Arc<VirtualClock>,
    /// Traffic counters of the transport (round trips, bytes, marshalled
    /// remote references) — inputs to the analytic model.
    pub stats: Arc<TransportStats>,
    profile: NetworkProfile,
}

impl AppRig {
    /// Exports `root` under `name` and connects an in-process client to it.
    ///
    /// # Panics
    ///
    /// Panics when the bind fails (name collision), which cannot happen on
    /// a fresh server.
    pub fn serve(name: &str, root: Arc<dyn RemoteObject>) -> AppRig {
        Self::build(
            name,
            root,
            &NetworkProfile::zero(),
            BatchExecutor::new(),
            IntWidth::Varint,
        )
    }

    /// Exports `root` and connects a client through a link that charges
    /// `profile` to the rig's clock.
    ///
    /// # Panics
    ///
    /// Panics when binding fails, which cannot happen on a fresh server.
    pub fn simulated(profile: &NetworkProfile, root: Arc<dyn RemoteObject>) -> AppRig {
        Self::simulated_with(profile, root, BatchExecutor::new(), IntWidth::Varint)
    }

    /// As [`AppRig::simulated`], with a caller-provided executor (the
    /// identity-preservation ablation) and wire integers encoded at
    /// `int_width` (the codec ablation).
    ///
    /// # Panics
    ///
    /// Panics when binding fails, which cannot happen on a fresh server.
    pub fn simulated_with(
        profile: &NetworkProfile,
        root: Arc<dyn RemoteObject>,
        executor: Arc<BatchExecutor>,
        int_width: IntWidth,
    ) -> AppRig {
        Self::build("app", root, profile, executor, int_width)
    }

    fn build(
        name: &str,
        root: Arc<dyn RemoteObject>,
        profile: &NetworkProfile,
        executor: Arc<BatchExecutor>,
        int_width: IntWidth,
    ) -> AppRig {
        let server = RmiServer::new();
        executor.install_on(&server);
        let id = server.bind(name, root).expect("fresh server bind");
        let clock = VirtualClock::new();
        server.set_loopback_sim(clock.clone(), profile.loopback_call_cpu);
        let transport =
            SimTransport::with_int_width(server.clone(), profile.clone(), clock.clone(), int_width);
        let stats = transport.stats();
        let conn = Connection::new(Arc::new(transport));
        let root = conn.reference(id);
        AppRig {
            server,
            executor,
            conn,
            root,
            clock,
            stats,
            profile: profile.clone(),
        }
    }

    /// The network profile this rig charges by.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// Runs `work` with the clock and counters reset, returning the
    /// simulated milliseconds it cost. Virtual time is exact, so one run
    /// replaces the paper's 5000–10000 averaged repetitions.
    pub fn measure_ms(&self, work: impl FnOnce()) -> f64 {
        self.clock.reset();
        self.stats.reset();
        work();
        self.clock.elapsed_millis()
    }
}

impl std::fmt::Debug for AppRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppRig")
            .field("profile", &self.profile.name)
            .field("requests", &self.stats.requests())
            .field("elapsed_ms", &self.clock.elapsed_millis())
            .finish_non_exhaustive()
    }
}

/// The no-op service bound as `"noop"` on a fresh server with batching
/// installed: the origin of the stress workloads, in process or behind a
/// reactor ([`NoopOrigin::serve`]).
#[derive(Debug)]
pub struct NoopOrigin {
    /// The origin server.
    pub server: Arc<RmiServer>,
    /// Its batch executor.
    pub executor: Arc<BatchExecutor>,
    /// The service, which counts the calls it executed.
    pub noop: Arc<NoopServer>,
}

impl NoopOrigin {
    /// Builds the origin. The setup is deterministic, so every incarnation
    /// of a durable origin can run it before `attach_durable`.
    ///
    /// # Panics
    ///
    /// Panics when the bind fails, which cannot happen on a fresh server.
    pub fn new() -> NoopOrigin {
        let server = RmiServer::new();
        let executor = BatchExecutor::install(&server);
        let noop = NoopServer::new();
        server
            .bind("noop", NoopSkeleton::remote_arc(noop.clone()))
            .expect("fresh server bind");
        NoopOrigin {
            server,
            executor,
            noop,
        }
    }

    /// Serves the origin on a loopback reactor with `reactor_threads`
    /// event loops and inline dispatch.
    ///
    /// # Errors
    ///
    /// Returns a transport error when the listener cannot bind.
    #[cfg(target_os = "linux")]
    pub fn serve(&self, reactor_threads: usize) -> Result<ReactorServer, RemoteError> {
        ReactorServer::bind_with(
            "127.0.0.1:0",
            self.server.clone(),
            ReactorConfig {
                reactor_threads,
                dispatch_workers: 0,
                ..ReactorConfig::default()
            },
        )
    }
}

impl Default for NoopOrigin {
    fn default() -> Self {
        NoopOrigin::new()
    }
}

/// Runs `client` on `clients` threads. Each thread calls `client()` to
/// arm itself (connect, look up, build its frames), then every thread is
/// released together and runs the returned work. Returns the wall clock
/// from the release to the last join.
///
/// # Errors
///
/// Returns the first client error; the other clients still run to the
/// end.
///
/// # Panics
///
/// Panics when a client thread itself panics.
pub fn run_wave<C, W>(clients: usize, client: C) -> Result<Duration, RemoteError>
where
    C: Fn() -> Result<W, RemoteError> + Sync,
    W: FnOnce() -> Result<(), RemoteError>,
{
    let gate = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let armed = client();
                    gate.wait();
                    armed?()
                })
            })
            .collect();
        gate.wait();
        let started = Instant::now();
        let mut first_error = None;
        for handle in handles {
            if let Err(err) = handle.join().expect("client thread panicked") {
                first_error = first_error.or(Some(err));
            }
        }
        let elapsed = started.elapsed();
        first_error.map_or(Ok(elapsed), Err)
    })
}
