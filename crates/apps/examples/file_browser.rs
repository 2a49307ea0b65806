//! The paper's Remote File Server over real TCP: a server thread exports a
//! directory; the client prints a listing (RMI vs BRMI round-trip counts)
//! and then deletes old files with the two-batch chained pattern of
//! Section 3.5.
//!
//! ```sh
//! cargo run -p brmi-apps --example file_browser
//! ```

#[cfg(target_os = "linux")]
fn main() -> Result<(), brmi_wire::RemoteError> {
    use std::sync::Arc;

    use brmi::BatchExecutor;
    use brmi_apps::fileserver::{
        brmi_delete_older_than, brmi_listing, rmi_listing, DirectorySkeleton, DirectoryStub,
        InMemoryDirectory,
    };
    use brmi_rmi::{Connection, RmiServer};
    use brmi_transport::reactor::ReactorServer;
    use brmi_transport::tcp::TcpTransport;
    use brmi_wire::DateMillis;

    // --- server ----------------------------------------------------------
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let directory = InMemoryDirectory::new();
    directory.populate(8, 2048); // 8 files, modified at t=0s,1s,...,7s
    server.bind("files", DirectorySkeleton::remote_arc(directory))?;
    let tcp = ReactorServer::bind("127.0.0.1:0", server.clone())?;
    println!(
        "file server listening on rmi://{}/files\n",
        tcp.local_addr()
    );

    // --- client ----------------------------------------------------------
    let conn = Connection::new(Arc::new(TcpTransport::connect(tcp.local_addr())?));
    let root = conn.lookup("files")?;

    println!("RMI listing (1 + 4n round trips):");
    for row in rmi_listing(&DirectoryStub::new(root.clone()))? {
        println!(
            "  {:<8} isDirectory={:<5} lastModified={:<10} length={}",
            row.name, row.is_directory, row.last_modified, row.length
        );
    }

    println!("\nBRMI listing (one round trip, via a cursor):");
    for row in brmi_listing(&conn, &root)? {
        println!(
            "  {:<8} isDirectory={:<5} lastModified={:<10} length={}",
            row.name, row.is_directory, row.last_modified, row.length
        );
    }

    println!("\nDeleting files older than t+4000ms (two chained batches):");
    let deleted = brmi_delete_older_than(&conn, &root, DateMillis(4_000))?;
    println!("  deleted: {deleted:?}");

    println!("\nRemaining files:");
    for row in brmi_listing(&conn, &root)? {
        println!("  {:<8} lastModified={}", row.name, row.last_modified);
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn main() -> std::process::ExitCode {
    eprintln!("file_browser requires Linux (the file server is epoll-based)");
    std::process::ExitCode::FAILURE
}
