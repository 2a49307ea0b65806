//! The no-op micro-benchmark (paper Section 5.3, Figures 5–6): a
//! do-nothing remote method isolating pure middleware overhead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use brmi::policy::AbortPolicy;
use brmi::{remote_interface, Batch, BatchFuture};
use brmi_rmi::{Connection, RemoteRef};
use brmi_wire::RemoteError;

remote_interface! {
    /// A service with one do-nothing method.
    pub interface Noop {
        /// Does nothing, takes nothing, returns nothing.
        fn noop();
    }
}

/// Counting no-op server, so tests can verify each call really executed.
#[derive(Debug, Default)]
pub struct NoopServer {
    calls: AtomicU64,
}

impl NoopServer {
    /// Creates a fresh server.
    pub fn new() -> Arc<Self> {
        Arc::new(NoopServer::default())
    }

    /// Calls served so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Noop for NoopServer {
    fn noop(&self) -> Result<(), RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// RMI driver: `n` round trips.
///
/// # Errors
///
/// Transport failures.
pub fn rmi_noops(stub: &NoopStub, n: usize) -> Result<(), RemoteError> {
    for _ in 0..n {
        stub.noop()?;
    }
    Ok(())
}

/// BRMI driver: one batch of `n` calls — a single round trip
/// (the paper uses one batch irrespective of call count).
///
/// # Errors
///
/// Transport failures at `flush`.
pub fn brmi_noops(conn: &Connection, noop_ref: &RemoteRef, n: usize) -> Result<(), RemoteError> {
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let noop = BNoop::new(&batch, noop_ref);
    let futures: Vec<BatchFuture<()>> = (0..n).map(|_| noop.noop()).collect();
    batch.flush()?;
    for future in futures {
        future.get()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::AppRig;

    #[test]
    fn every_call_reaches_the_server_once() {
        let server = NoopServer::new();
        let rig = AppRig::serve("noop", NoopSkeleton::remote_arc(server.clone()));

        rmi_noops(&NoopStub::new(rig.root.clone()), 5).unwrap();
        assert_eq!(server.calls(), 5);
        assert_eq!(rig.stats.requests(), 5);

        rig.stats.reset();
        brmi_noops(&rig.conn, &rig.root, 5).unwrap();
        assert_eq!(server.calls(), 10);
        assert_eq!(rig.stats.requests(), 1);
    }

    #[test]
    fn zero_calls_cost_zero_round_trips() {
        let server = NoopServer::new();
        let rig = AppRig::serve("noop", NoopSkeleton::remote_arc(server.clone()));
        brmi_noops(&rig.conn, &rig.root, 0).unwrap();
        assert_eq!(rig.stats.requests(), 0);
    }
}
