//! Failure handling: transport errors surface at `flush` (paper §3.3), and
//! batches behave sanely over faulty links and real TCP.

mod common;

use std::sync::Arc;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::fault::{FaultPlan, FaultyTransport};
use brmi_transport::inproc::InProcTransport;
#[cfg(target_os = "linux")]
use brmi_transport::{pool::TcpPool, reactor::ReactorServer};
use brmi_wire::RemoteErrorKind;
use common::{BNode, NodeSkeleton, NodeStub, TestNode};

fn faulty_rig(plan: FaultPlan) -> (Connection, brmi_rmi::RemoteRef) {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let id = server
        .bind("root", NodeSkeleton::remote_arc(TestNode::new("n0", 7)))
        .unwrap();
    let transport = FaultyTransport::new(InProcTransport::new(server.clone()), plan);
    let conn = Connection::new(transport);
    let reference = conn.reference(id);
    (conn, reference)
}

#[test]
fn transport_error_surfaces_at_flush_and_fails_futures() {
    let (conn, reference) = faulty_rig(FaultPlan::Always);
    let batch = Batch::new(conn, AbortPolicy);
    let root = BNode::new(&batch, &reference);
    let name = root.name();
    let value = root.value();

    let err = batch.flush().unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Transport);
    // Every future of the failed segment carries the same error.
    assert_eq!(name.get().unwrap_err().kind(), RemoteErrorKind::Transport);
    assert_eq!(value.get().unwrap_err().kind(), RemoteErrorKind::Transport);
    assert!(batch.is_finished());
}

#[test]
fn rmi_fails_per_call_brmi_fails_per_batch() {
    // With a link that fails the 2nd request: RMI loses one call of many,
    // BRMI loses either everything (its single trip fails) or nothing.
    let (conn, reference) = faulty_rig(FaultPlan::OnNth(2));
    let stub = NodeStub::new(reference.clone());
    assert!(stub.value().is_ok()); // request 1
    assert!(stub.value().is_err()); // request 2: injected fault
    assert!(stub.value().is_ok()); // request 3

    let batch = Batch::new(conn, AbortPolicy);
    let root = BNode::new(&batch, &reference);
    let a = root.value();
    let b = root.name();
    batch.flush().unwrap(); // request 4: one trip, both results
    assert_eq!(a.get().unwrap(), 7);
    assert_eq!(b.get().unwrap(), "n0");
}

#[test]
fn chained_batch_recovers_nothing_after_transport_loss() {
    let (conn, reference) = faulty_rig(FaultPlan::OnNth(2));
    let batch = Batch::new(conn, AbortPolicy);
    let root = BNode::new(&batch, &reference);
    let _ = root.value();
    batch.flush_and_continue().unwrap(); // request 1 ok
    let late = root.value();
    let err = batch.flush().unwrap_err(); // request 2 fails
    assert_eq!(err.kind(), RemoteErrorKind::Transport);
    assert_eq!(late.get().unwrap_err().kind(), RemoteErrorKind::Transport);
    assert!(batch.is_finished());
    // Recording afterwards stays failed, no panic.
    let post = root.value();
    assert!(post.get().is_err());
}

#[test]
#[cfg(target_os = "linux")]
fn batching_works_over_real_tcp() {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let root = TestNode::new("n0", 10);
    *root.next.lock() = Some(TestNode::new("n1", 32));
    server.bind("root", NodeSkeleton::remote_arc(root)).unwrap();

    let tcp = ReactorServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let transport = TcpPool::connect(tcp.local_addr()).unwrap();
    let conn = Connection::new(Arc::new(transport));
    let reference = conn.lookup("root").unwrap();

    // RMI over TCP.
    let stub = NodeStub::new(reference.clone());
    assert_eq!(stub.value().unwrap(), 10);

    // BRMI over TCP, with chained results and identity.
    let batch = Batch::new(conn, AbortPolicy);
    let broot = BNode::new(&batch, &reference);
    let next = broot.next();
    let sum = broot.add(&next);
    let same = broot.is_same(&next);
    batch.flush().unwrap();
    assert_eq!(sum.get().unwrap(), 42);
    assert!(same.get().unwrap());
}

#[test]
#[cfg(target_os = "linux")]
fn chained_batches_work_over_real_tcp() {
    let server = RmiServer::new();
    let executor = BatchExecutor::install(&server);
    let root = TestNode::new("root", 0);
    *root.children.lock() = vec![TestNode::new("c0", 3), TestNode::new("c1", 30)];
    server
        .bind("root", NodeSkeleton::remote_arc(root.clone()))
        .unwrap();

    let tcp = ReactorServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let conn = Connection::new(Arc::new(TcpPool::connect(tcp.local_addr()).unwrap()));
    let reference = conn.lookup("root").unwrap();

    let batch = Batch::new(conn, AbortPolicy);
    let broot = BNode::new(&batch, &reference);
    let cursor = broot.children();
    let value = cursor.value();
    batch.flush_and_continue().unwrap();
    while cursor.advance() {
        if value.get().unwrap() >= 10 {
            cursor.set_value(-1);
        }
    }
    batch.flush().unwrap();
    assert_eq!(executor.session_count(), 0);
    let values: Vec<i32> = root
        .children
        .lock()
        .iter()
        .map(|c| *c.value.lock())
        .collect();
    assert_eq!(values, vec![3, -1]);
}

#[test]
fn server_without_batch_support_rejects_flush() {
    let server = RmiServer::new(); // no BatchExecutor installed
    let id = server
        .bind("root", NodeSkeleton::remote_arc(TestNode::new("n0", 1)))
        .unwrap();
    let conn = Connection::new(Arc::new(InProcTransport::new(server.clone())));
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let root = BNode::new(&batch, &conn.reference(id));
    let value = root.value();
    let err = batch.flush().unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Protocol);
    assert!(err.message().contains("no batch support"));
    assert!(value.get().is_err());
}
