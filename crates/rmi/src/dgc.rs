//! Distributed garbage collection: lease-based reclamation of exported
//! objects, modelled on Java RMI's `DGCClient`/`DGC` pair.
//!
//! RMI's marshalling rule — remote results are exported and returned as
//! stubs — means a server's export table grows with every remote-
//! returning call. Java reclaims those exports with leases: the client
//! runtime `dirty`s each remote reference it holds and `clean`s it when
//! the stub is collected; a lease that is neither renewed nor cleaned
//! expires and the server unexports the object.
//!
//! This matters to the paper's story twice over:
//!
//! 1. it is part of the substrate RMI programs rely on (without it, the
//!    linked-list benchmark leaks one export per hop, forever);
//! 2. BRMI's identity preservation (Section 4.4) keeps batch-created
//!    remote results *out of the export table entirely*, so explicit
//!    batching also eliminates the DGC traffic and lease state those
//!    exports would have cost — measured by
//!    `crates/rmi/tests/dgc_pressure.rs`.
//!
//! ## Substitution note
//!
//! Java's `DGCClient` hooks stub unmarshalling inside the JVM runtime and
//! renews on a timer thread. Rust has neither runtime hook nor implicit
//! finalization, so the client half is an explicit [`LeaseHolder`] that
//! callers drive (`track` on receipt, `renew_all` on a cadence,
//! `release` on drop) — same protocol, deterministic scheduling.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use brmi_transport::clock::Clock;
use brmi_wire::ObjectId;
use parking_lot::Mutex;

use crate::journal::{duration_nanos, nanos_duration, JournalCell, JournalRecord};

/// Tuning for a server-side [`DgcServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgcConfig {
    /// Lease granted when an object is exported by marshalling and when a
    /// `dirty` asks for more than the server allows (Java's
    /// `java.rmi.dgc.leaseValue`, default 10 minutes).
    pub max_lease: Duration,
}

impl Default for DgcConfig {
    fn default() -> Self {
        DgcConfig {
            max_lease: Duration::from_secs(600),
        }
    }
}

/// Counters of DGC activity (all cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DgcStats {
    /// Leases granted to freshly marshalled exports.
    pub granted: u64,
    /// Lease renewals honoured (`dirty` on a live lease).
    pub renewed: u64,
    /// Explicit releases (`clean`).
    pub cleaned: u64,
    /// Leases that expired and whose objects were unexported.
    pub expired: u64,
}

struct LeaseTable {
    /// Lease expiry instants, as durations on the shared clock.
    expires: HashMap<u64, Duration>,
    stats: DgcStats,
}

/// The server half of distributed GC.
///
/// Attach to an [`RmiServer`](crate::RmiServer) with
/// [`RmiServer::enable_dgc`](crate::RmiServer::enable_dgc); from then on
/// every object exported *by marshalling* (remote results and remote
/// arguments crossing the wire) carries a lease, while objects exported
/// explicitly (`export`/`bind`) stay pinned forever, like Java objects
/// the application keeps strongly reachable.
pub struct DgcServer {
    clock: Arc<dyn Clock>,
    config: DgcConfig,
    leases: Mutex<LeaseTable>,
    journal: JournalCell,
}

impl DgcServer {
    /// Creates a DGC with the given clock and configuration.
    pub fn new(clock: Arc<dyn Clock>, config: DgcConfig) -> Arc<Self> {
        Arc::new(DgcServer {
            clock,
            config,
            leases: Mutex::new(LeaseTable {
                expires: HashMap::new(),
                stats: DgcStats::default(),
            }),
            journal: JournalCell::default(),
        })
    }

    /// Wires lease grants/renewals/releases/expiries to `journal`.
    pub(crate) fn attach_journal(&self, journal: &Arc<crate::journal::Journal>) {
        self.journal.attach(journal);
    }

    /// Live leases as `(id, absolute expiry in clock nanoseconds)`,
    /// sorted by id — snapshot capture.
    pub(crate) fn export_leases(&self) -> Vec<(u64, u64)> {
        let table = self.leases.lock();
        let mut leases: Vec<(u64, u64)> = table
            .expires
            .iter()
            .map(|(&id, &expiry)| (id, duration_nanos(expiry)))
            .collect();
        leases.sort_unstable();
        leases
    }

    /// Reinstates a recovered lease at an absolute expiry without
    /// journaling or counting it as a fresh grant.
    pub(crate) fn restore_lease(&self, id: ObjectId, expires_nanos: u64) {
        self.leases
            .lock()
            .expires
            .insert(id.0, nanos_duration(expires_nanos));
    }

    /// Drops a lease during recovery replay (`clean`/expiry records)
    /// without journaling or touching the stats.
    pub(crate) fn forget_lease(&self, id: ObjectId) {
        self.leases.lock().expires.remove(&id.0);
    }

    /// Grants the initial lease for a freshly marshalled export.
    pub(crate) fn grant(&self, id: ObjectId) {
        let now = self.clock.elapsed();
        let expiry = now + self.config.max_lease;
        {
            let mut table = self.leases.lock();
            table.expires.insert(id.0, expiry);
            table.stats.granted += 1;
        }
        self.journal.record(|| JournalRecord::LeaseGranted {
            id,
            expires_nanos: duration_nanos(expiry),
        });
    }

    /// Handles a `dirty`: renews the leases of `ids`, returning the
    /// granted duration. Ids without a lease (pinned or already expired)
    /// are ignored, as in Java, where a dirty on a reclaimed id simply
    /// fails the stub later.
    pub fn dirty(&self, ids: &[ObjectId], requested: Duration) -> Duration {
        let granted = requested.min(self.config.max_lease);
        let now = self.clock.elapsed();
        let expiry = now + granted;
        let mut renewed = Vec::new();
        {
            let mut table = self.leases.lock();
            for id in ids {
                if let Some(slot) = table.expires.get_mut(&id.0) {
                    *slot = expiry;
                    table.stats.renewed += 1;
                    renewed.push(*id);
                }
            }
        }
        for id in renewed {
            self.journal.record(|| JournalRecord::LeaseRenewed {
                id,
                expires_nanos: duration_nanos(expiry),
            });
        }
        granted
    }

    /// Handles a `clean`: forgets the leases of `ids`, returning the ids
    /// that actually held one (the server unexports those).
    pub fn clean(&self, ids: &[ObjectId]) -> Vec<ObjectId> {
        let mut released = Vec::new();
        {
            let mut table = self.leases.lock();
            for id in ids {
                if table.expires.remove(&id.0).is_some() {
                    table.stats.cleaned += 1;
                    released.push(*id);
                }
            }
        }
        for id in &released {
            self.journal
                .record(|| JournalRecord::LeaseCleaned { id: *id });
        }
        released
    }

    /// Collects the ids whose lease has expired at the current clock
    /// time, removing them from the lease table. The server unexports
    /// the returned ids.
    pub fn take_expired(&self) -> Vec<ObjectId> {
        let now = self.clock.elapsed();
        let expired: Vec<ObjectId> = {
            let mut table = self.leases.lock();
            let expired: Vec<ObjectId> = table
                .expires
                .iter()
                .filter(|(_, expiry)| **expiry <= now)
                .map(|(&id, _)| ObjectId(id))
                .collect();
            for id in &expired {
                table.expires.remove(&id.0);
            }
            table.stats.expired += expired.len() as u64;
            expired
        };
        for id in &expired {
            self.journal
                .record(|| JournalRecord::LeaseExpired { id: *id });
        }
        expired
    }

    /// Number of live leases.
    pub fn lease_count(&self) -> usize {
        self.leases.lock().expires.len()
    }

    /// True when `id` currently holds a lease.
    pub fn is_leased(&self, id: ObjectId) -> bool {
        self.leases.lock().expires.contains_key(&id.0)
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> DgcStats {
        self.leases.lock().stats
    }

    /// The configured maximum lease.
    pub fn config(&self) -> DgcConfig {
        self.config
    }
}

impl std::fmt::Debug for DgcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DgcServer")
            .field("live_leases", &self.lease_count())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// The client half of distributed GC: tracks the remote references a
/// client holds and drives the `dirty`/`clean` protocol over its
/// [`Connection`](crate::Connection).
///
/// Java's `DGCClient` does this implicitly from the stub unmarshalling
/// path; here the caller `track`s references explicitly (see the module
/// docs for why).
pub struct LeaseHolder {
    conn: crate::Connection,
    held: Mutex<Vec<ObjectId>>,
    lease: Duration,
}

impl LeaseHolder {
    /// Creates a holder renewing for `lease` on each [`renew_all`].
    ///
    /// [`renew_all`]: LeaseHolder::renew_all
    pub fn new(conn: crate::Connection, lease: Duration) -> Self {
        LeaseHolder {
            conn,
            held: Mutex::new(Vec::new()),
            lease,
        }
    }

    /// Starts tracking a received remote reference.
    pub fn track(&self, id: ObjectId) {
        let mut held = self.held.lock();
        if !held.contains(&id) {
            held.push(id);
        }
    }

    /// Renews every tracked lease in one round trip; returns the granted
    /// duration.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn renew_all(&self) -> Result<Duration, brmi_wire::RemoteError> {
        let ids = self.held.lock().clone();
        if ids.is_empty() {
            return Ok(self.lease);
        }
        self.conn.dirty(&ids, self.lease)
    }

    /// Stops tracking `id` and `clean`s it on the server.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn release(&self, id: ObjectId) -> Result<(), brmi_wire::RemoteError> {
        self.held.lock().retain(|held| *held != id);
        self.conn.clean(&[id])
    }

    /// Releases everything still tracked in one round trip.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn release_all(&self) -> Result<(), brmi_wire::RemoteError> {
        let ids = std::mem::take(&mut *self.held.lock());
        if ids.is_empty() {
            return Ok(());
        }
        self.conn.clean(&ids)
    }

    /// Number of tracked references.
    pub fn tracked(&self) -> usize {
        self.held.lock().len()
    }
}

impl std::fmt::Debug for LeaseHolder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseHolder")
            .field("tracked", &self.tracked())
            .field("lease", &self.lease)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_transport::clock::VirtualClock;

    fn dgc(max_lease_secs: u64) -> (Arc<DgcServer>, Arc<VirtualClock>) {
        let clock = VirtualClock::new();
        let dgc = DgcServer::new(
            clock.clone(),
            DgcConfig {
                max_lease: Duration::from_secs(max_lease_secs),
            },
        );
        (dgc, clock)
    }

    #[test]
    fn grant_then_expire() {
        let (dgc, clock) = dgc(10);
        dgc.grant(ObjectId(1));
        assert!(dgc.is_leased(ObjectId(1)));
        assert!(dgc.take_expired().is_empty());
        clock.advance(Duration::from_secs(11));
        assert_eq!(dgc.take_expired(), vec![ObjectId(1)]);
        assert!(!dgc.is_leased(ObjectId(1)));
        assert_eq!(dgc.stats().expired, 1);
    }

    #[test]
    fn dirty_extends_the_lease() {
        let (dgc, clock) = dgc(10);
        dgc.grant(ObjectId(1));
        clock.advance(Duration::from_secs(8));
        let granted = dgc.dirty(&[ObjectId(1)], Duration::from_secs(10));
        assert_eq!(granted, Duration::from_secs(10));
        clock.advance(Duration::from_secs(8));
        assert!(dgc.take_expired().is_empty(), "renewed at t=8, good to 18");
        clock.advance(Duration::from_secs(3));
        assert_eq!(dgc.take_expired(), vec![ObjectId(1)]);
    }

    #[test]
    fn dirty_clamps_to_max_lease() {
        let (dgc, _clock) = dgc(10);
        dgc.grant(ObjectId(1));
        let granted = dgc.dirty(&[ObjectId(1)], Duration::from_secs(3600));
        assert_eq!(granted, Duration::from_secs(10));
    }

    #[test]
    fn dirty_on_unleased_id_is_ignored() {
        let (dgc, _clock) = dgc(10);
        dgc.dirty(&[ObjectId(42)], Duration::from_secs(5));
        assert_eq!(dgc.lease_count(), 0);
        assert_eq!(dgc.stats().renewed, 0);
    }

    #[test]
    fn clean_releases_immediately() {
        let (dgc, _clock) = dgc(10);
        dgc.grant(ObjectId(1));
        dgc.grant(ObjectId(2));
        let released = dgc.clean(&[ObjectId(1), ObjectId(99)]);
        assert_eq!(released, vec![ObjectId(1)]);
        assert_eq!(dgc.lease_count(), 1);
        assert_eq!(dgc.stats().cleaned, 1);
    }

    #[test]
    fn expiry_is_per_object() {
        let (dgc, clock) = dgc(10);
        dgc.grant(ObjectId(1));
        clock.advance(Duration::from_secs(5));
        dgc.grant(ObjectId(2));
        clock.advance(Duration::from_secs(6)); // t=11: 1 expired, 2 alive
        assert_eq!(dgc.take_expired(), vec![ObjectId(1)]);
        assert!(dgc.is_leased(ObjectId(2)));
    }

    #[test]
    fn stats_count_each_kind() {
        let (dgc, clock) = dgc(1);
        dgc.grant(ObjectId(1));
        dgc.grant(ObjectId(2));
        dgc.dirty(&[ObjectId(1)], Duration::from_secs(1));
        dgc.clean(&[ObjectId(2)]);
        clock.advance(Duration::from_secs(2));
        dgc.take_expired();
        let stats = dgc.stats();
        assert_eq!(stats.granted, 2);
        assert_eq!(stats.renewed, 1);
        assert_eq!(stats.cleaned, 1);
        assert_eq!(stats.expired, 1);
    }

    #[test]
    fn debug_is_informative() {
        let (dgc, _clock) = dgc(10);
        dgc.grant(ObjectId(1));
        assert!(format!("{dgc:?}").contains("live_leases: 1"));
    }
}
