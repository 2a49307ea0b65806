//! The paper's Bank case study (Section 5.1): a purchase session folded
//! into one batch, protected by a custom exception policy that aborts only
//! when the account lookup fails.
//!
//! ```sh
//! cargo run -p brmi-apps --example bank_teller
//! ```

use std::sync::Arc;

use brmi::BatchExecutor;
use brmi_apps::bank::{
    brmi_purchase_session, rmi_purchase_session, Bank, CreditManagerSkeleton, CreditManagerStub,
};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::sim::SimTransport;
use brmi_wire::RemoteError;

fn main() -> Result<(), RemoteError> {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let bank = Bank::new();
    bank.open_account("alice", 1_000.0);
    server.bind("bank", CreditManagerSkeleton::remote_arc(bank))?;

    let transport = SimTransport::in_process(server.clone());
    let stats = transport.stats();
    let conn = Connection::new(Arc::new(transport));
    let manager = conn.lookup("bank")?;

    let amounts = [123.0, 456.0, 800.0, 10.0]; // the third overdrafts

    println!("RMI session (lookup + purchases + credit line):");
    let report = rmi_purchase_session(&CreditManagerStub::new(manager.clone()), "alice", &amounts)?;
    for (amount, outcome) in amounts.iter().zip(&report.purchase_errors) {
        match outcome {
            None => println!("  purchase {amount:>7.2}: ok"),
            Some(exception) => println!("  purchase {amount:>7.2}: {exception}"),
        }
    }
    println!("  credit line: {:?}", report.credit_line);
    println!("  round trips: {}\n", stats.requests());

    stats.reset();
    println!("BRMI session (same work, custom policy, ONE round trip):");
    let report = brmi_purchase_session(&conn, &manager, "alice", &amounts)?;
    for (amount, outcome) in amounts.iter().zip(&report.purchase_errors) {
        match outcome {
            None => println!("  purchase {amount:>7.2}: ok"),
            Some(exception) => println!("  purchase {amount:>7.2}: {exception}"),
        }
    }
    println!("  credit line: {:?}", report.credit_line);
    println!("  round trips: {}\n", stats.requests());

    println!("Unknown customer: the policy breaks the batch at the lookup:");
    let report = brmi_purchase_session(&conn, &manager, "mallory", &[42.0])?;
    println!("  purchases:   {:?}", report.purchase_errors);
    println!("  credit line: {:?}", report.credit_line);
    Ok(())
}
