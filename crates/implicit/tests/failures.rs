//! Failure behaviour of the implicit runtime: communication errors
//! surface at the forcing demand (the implicit analogue of "all
//! communication errors surface at flush", paper Section 3.3), and a
//! dead link permanently finishes the runtime.

use std::sync::Arc;

use brmi::{remote_interface, BatchExecutor};
use brmi_implicit::ImplicitRuntime;
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::fault::{FaultPlan, FaultyTransport};
use brmi_transport::sim::SimTransport;
use brmi_wire::{RemoteError, RemoteErrorKind};

remote_interface! {
    /// Minimal service.
    pub interface Echo {
        fn echo(v: i32) -> i32;
    }
}

struct Server;

impl Echo for Server {
    fn echo(&self, v: i32) -> Result<i32, RemoteError> {
        Ok(v)
    }
}

fn rig(plan: FaultPlan) -> (Connection, RemoteRef) {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let id = server
        .bind("echo", EchoSkeleton::remote_arc(Arc::new(Server)))
        .unwrap();
    let transport = FaultyTransport::new(SimTransport::in_process(server.clone()), plan);
    let conn = Connection::new(transport);
    let root = conn.reference(id);
    (conn, root)
}

#[test]
fn transport_failure_surfaces_at_the_forcing_demand() {
    let (conn, root) = rig(FaultPlan::OnNth(1));
    let rt = ImplicitRuntime::new(conn);
    let echo: BEcho = rt.stub(&root);
    let a = rt.lazy(echo.echo(1));
    let b = rt.lazy(echo.echo(2));
    // Recording is unaffected; the demand carries the transport error.
    let err = a.get().unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Transport);
    // Both futures fail with the same flush error.
    assert_eq!(b.get().unwrap_err().kind(), RemoteErrorKind::Transport);
}

#[test]
fn runtime_is_finished_after_a_transport_failure() {
    let (conn, root) = rig(FaultPlan::OnNth(1));
    let rt = ImplicitRuntime::new(conn);
    let echo: BEcho = rt.stub(&root);
    let doomed = rt.lazy(echo.echo(1));
    assert!(doomed.get().is_err());

    // Later work is refused rather than silently retried: the chain's
    // server state is unknown after a failed flush.
    let late = rt.lazy(echo.echo(2));
    assert_eq!(late.get().unwrap_err().kind(), RemoteErrorKind::Protocol);
    assert!(rt.barrier().is_err());
}

#[test]
fn recovered_link_serves_a_fresh_runtime() {
    let (conn, root) = rig(FaultPlan::FirstN(1));
    let rt = ImplicitRuntime::new(conn.clone());
    let echo: BEcho = rt.stub(&root);
    assert!(rt.lazy(echo.echo(1)).get().is_err());

    // The application-level recovery story: a new runtime on the same
    // (now healthy) connection.
    let rt = ImplicitRuntime::new(conn);
    let echo: BEcho = rt.stub(&root);
    assert_eq!(rt.lazy(echo.echo(7)).get().unwrap(), 7);
    rt.finish().unwrap();
}

#[test]
fn finish_reports_transport_failure_once() {
    let (conn, root) = rig(FaultPlan::Always);
    let rt = ImplicitRuntime::new(conn);
    let echo: BEcho = rt.stub(&root);
    let _pending = rt.lazy(echo.echo(1));
    assert!(rt.finish().is_err(), "the final flush fails");
    assert!(rt.finish().is_ok(), "finish is idempotent afterwards");
}
