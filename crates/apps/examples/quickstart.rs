//! Quickstart: define a remote interface, serve it, and batch three calls
//! into one round trip.
//!
//! ```sh
//! cargo run -p brmi-apps --example quickstart
//! ```

use std::sync::Arc;

use brmi::policy::AbortPolicy;
use brmi::{remote_interface, Batch, BatchExecutor};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::sim::SimTransport;
use brmi_wire::RemoteError;

remote_interface! {
    /// A trivial greeting service.
    pub interface Greeter {
        fn greet(name: String) -> String;
        fn greetings_served() -> i64;
    }
}

struct English {
    served: std::sync::atomic::AtomicI64,
}

impl Greeter for English {
    fn greet(&self, name: String) -> Result<String, RemoteError> {
        self.served
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(format!("hello, {name}!"))
    }

    fn greetings_served(&self) -> Result<i64, RemoteError> {
        Ok(self.served.load(std::sync::atomic::Ordering::Relaxed))
    }
}

fn main() -> Result<(), RemoteError> {
    // --- server side -----------------------------------------------------
    let server = RmiServer::new();
    BatchExecutor::install(&server); // enables invoke_batch for every object
    server.bind(
        "greeter",
        GreeterSkeleton::remote_arc(Arc::new(English {
            served: std::sync::atomic::AtomicI64::new(0),
        })),
    )?;

    // --- client side -----------------------------------------------------
    let transport = SimTransport::in_process(server.clone());
    let stats = transport.stats();
    let conn = Connection::new(Arc::new(transport));
    let remote = conn.lookup("greeter")?;

    // Plain RMI: one round trip per call.
    let stub = GreeterStub::new(remote.clone());
    println!("RMI:  {}", stub.greet("alice".into())?);
    println!("RMI:  {}", stub.greet("bob".into())?);
    println!("      ({} round trips so far)", stats.requests());

    // BRMI: record three calls, flush once.
    let batch = Batch::new(conn, AbortPolicy);
    let greeter = BGreeter::new(&batch, &remote);
    let carol = greeter.greet("carol".into());
    let dave = greeter.greet("dave".into());
    let total = greeter.greetings_served();
    batch.flush()?; // a single round trip for all three calls

    println!("BRMI: {}", carol.get()?);
    println!("BRMI: {}", dave.get()?);
    println!("BRMI: greetings served: {}", total.get()?);
    println!("      ({} round trips total)", stats.requests());
    Ok(())
}
