//! Implicit vs explicit batching on the paper's running example.
//!
//! The paper argues (Section 1) that implicit batching is "weaker and
//! more unpredictable" than explicit batches: exception handlers and
//! value-dependent loops force flushes the programmer cannot see. This
//! example runs the same directory-listing workload three ways and
//! prints the round trips each one paid.
//!
//! ```sh
//! cargo run -p brmi-apps --example implicit_vs_explicit
//! ```

use std::sync::Arc;

use brmi::BatchExecutor;
use brmi_apps::fileserver::{
    brmi_listing, rmi_listing, DirectorySkeleton, DirectoryStub, InMemoryDirectory,
};
use brmi_apps::implicit_clients::{implicit_listing, implicit_listing_restructured};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::sim::SimTransport;
use brmi_wire::RemoteError;

fn main() -> Result<(), RemoteError> {
    let directory = InMemoryDirectory::new();
    directory.populate(10, 1024);
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    server.bind("files", DirectorySkeleton::remote_arc(directory))?;

    let transport = SimTransport::in_process(server.clone());
    let stats = transport.stats();
    let conn = Connection::new(Arc::new(transport));
    let root = conn.lookup("files")?;

    println!("listing 10 remote files (name, type, date, length each):\n");

    stats.reset();
    let rows = rmi_listing(&DirectoryStub::new(root.clone()))?;
    println!("RMI                   {:>3} round trips", stats.requests());

    stats.reset();
    let implicit = implicit_listing(&conn, &root)?;
    println!("implicit (natural)    {:>3} round trips", stats.requests());
    assert_eq!(rows, implicit);

    stats.reset();
    let restructured = implicit_listing_restructured(&conn, &root)?;
    println!("implicit (restruct.)  {:>3} round trips", stats.requests());
    assert_eq!(rows, restructured);

    stats.reset();
    let explicit = brmi_listing(&conn, &root)?;
    println!("BRMI cursor           {:>3} round trips", stats.requests());
    assert_eq!(rows, explicit);

    println!(
        "\nSame rows every time; only the communication pattern differs.\n\
         The implicit client cannot use a cursor, so the natural loop\n\
         demands values per file; explicit batching states the batch\n\
         boundary and pays one round trip."
    );
    Ok(())
}
