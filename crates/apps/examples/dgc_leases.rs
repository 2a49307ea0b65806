//! Distributed GC in action: RMI's per-result exports need leases;
//! BRMI's identity preservation sidesteps the whole machinery.
//!
//! ```sh
//! cargo run -p brmi-apps --example dgc_leases
//! ```

use std::sync::Arc;
use std::time::Duration;

use brmi::BatchExecutor;
use brmi_apps::list::{
    brmi_nth_value, rmi_nth_value, ListNode, RemoteListSkeleton, RemoteListStub,
};
use brmi_rmi::{Connection, DgcConfig, LeaseHolder, RmiServer};
use brmi_transport::clock::{Clock, VirtualClock};
use brmi_transport::sim::SimTransport;
use brmi_wire::RemoteError;

fn main() -> Result<(), RemoteError> {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let clock = VirtualClock::new();
    let dgc = server.enable_dgc(
        clock.clone(),
        DgcConfig {
            max_lease: Duration::from_secs(30),
        },
    );
    let values: Vec<i32> = (1..=8).map(|i| i * 10).collect();
    server.bind(
        "list",
        RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
    )?;
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    let head = conn.lookup("list")?;

    println!("traversing 5 hops of a remote linked list\n");

    // RMI: each hop exports the next node and grants a lease.
    let mut node = RemoteListStub::new(head.clone());
    let holder = LeaseHolder::new(conn.clone(), Duration::from_secs(30));
    for _ in 0..5 {
        node = node.next()?;
        holder.track(node.remote_ref().id());
    }
    println!(
        "RMI:  value {} — {} leases live, client must renew them",
        node.get_value()?,
        dgc.lease_count()
    );

    // Renewals keep the stubs alive...
    clock.advance(Duration::from_secs(25));
    holder.renew_all()?;
    clock.advance(Duration::from_secs(25));
    println!(
        "      after renewal: {} reclaimed, value still {}",
        server.dgc_sweep(),
        node.get_value()?
    );

    // ...until the client stops renewing.
    clock.advance(Duration::from_secs(31));
    println!(
        "      client gone: {} exports reclaimed, stub now fails: {}",
        server.dgc_sweep(),
        node.get_value().unwrap_err()
    );

    // BRMI: the same traversal grants nothing and leaks nothing.
    let before = dgc.stats().granted;
    let value = brmi_nth_value(&conn, &head, 5)?;
    println!(
        "\nBRMI: value {value} — {} new leases (identity preservation keeps\n      batch results out of the export table)",
        dgc.stats().granted - before
    );

    // And the RMI client can always start over from the pinned root.
    let value = rmi_nth_value(&RemoteListStub::new(head), 5)?;
    println!("RMI again from the pinned root: value {value}");
    Ok(())
}
