//! Shared fixture for the BRMI integration tests: a small graph service
//! exercising every interface feature (values, remote results, arrays,
//! remote arguments, failures with controllable behaviour).
#![allow(dead_code)] // each test file uses a different subset of the fixture

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use brmi::{remote_interface, Batch, BatchExecutor};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::sim::SimTransport;
use brmi_transport::TransportStats;
use brmi_wire::invocation::PolicySpec;
use brmi_wire::{RemoteError, RemoteErrorKind};
use parking_lot::Mutex;

remote_interface! {
    /// A node in a remote graph.
    pub interface Node {
        #[read_only]
        fn name() -> String;
        #[read_only]
        fn value() -> i32;
        fn set_value(v: i32);
        fn next() -> remote Node;
        fn children() -> remote_array Node;
        fn fail_with(exception: String) -> i32;
        fn add(other: remote Node) -> i32;
        fn is_same(other: remote Node) -> bool;
        fn flaky(succeed_after: i32) -> i32;
        fn next_value_of(other: remote Node) -> i32;
        fn sum_children_of(other: remote Node) -> i32;
    }
}

/// Test implementation of [`Node`].
pub struct TestNode {
    pub name: String,
    pub value: Mutex<i32>,
    pub next: Mutex<Option<Arc<TestNode>>>,
    pub children: Mutex<Vec<Arc<TestNode>>>,
    pub attempts: AtomicU32,
    pub calls: AtomicU32,
}

impl TestNode {
    pub fn new(name: &str, value: i32) -> Arc<Self> {
        Arc::new(TestNode {
            name: name.to_owned(),
            value: Mutex::new(value),
            next: Mutex::new(None),
            children: Mutex::new(Vec::new()),
            attempts: AtomicU32::new(0),
            calls: AtomicU32::new(0),
        })
    }
}

impl Node for TestNode {
    fn name(&self) -> Result<String, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(self.name.clone())
    }

    fn value(&self) -> Result<i32, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(*self.value.lock())
    }

    fn set_value(&self, v: i32) -> Result<(), RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        *self.value.lock() = v;
        Ok(())
    }

    fn next(&self) -> Result<Arc<dyn Node>, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match self.next.lock().clone() {
            Some(node) => Ok(node),
            None => Err(RemoteError::application(
                "NoNextNode",
                format!("node {} has no successor", self.name),
            )),
        }
    }

    fn children(&self) -> Result<Vec<Arc<dyn Node>>, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(self
            .children
            .lock()
            .iter()
            .cloned()
            .map(|child| child as Arc<dyn Node>)
            .collect())
    }

    fn fail_with(&self, exception: String) -> Result<i32, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Err(RemoteError::application(exception, "requested failure"))
    }

    fn add(&self, other: Arc<dyn Node>) -> Result<i32, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        // Copy before calling out: `other` may be this very node (both via
        // a loopback proxy under RMI and by identity preservation under
        // BRMI), and the value mutex is not reentrant.
        let mine = *self.value.lock();
        Ok(mine + other.value()?)
    }

    /// The paper's RemoteIdentity check (Section 4.4): is `other` the very
    /// object this node's `next()` returned (not a marshalled stub of it)?
    fn is_same(&self, other: Arc<dyn Node>) -> Result<bool, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let stored =
            self.next.lock().clone().ok_or_else(|| {
                RemoteError::application("NoNextNode", "nothing to compare against")
            })?;
        let stored_ptr = Arc::as_ptr(&stored) as *const ();
        let other_ptr = Arc::as_ptr(&other) as *const ();
        Ok(std::ptr::eq(stored_ptr, other_ptr))
    }

    /// Navigates `other.next()` server-side, then reads its value. Under
    /// RMI `other` is a loopback proxy, so this exercises the proxy's
    /// remote-returning path (a proxy that yields another proxy).
    fn next_value_of(&self, other: Arc<dyn Node>) -> Result<i32, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        other.next()?.value()
    }

    /// Sums `other.children()` values server-side; under RMI this walks an
    /// array of loopback proxies.
    fn sum_children_of(&self, other: Arc<dyn Node>) -> Result<i32, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut sum = 0;
        for child in other.children()? {
            sum += child.value()?;
        }
        Ok(sum)
    }

    fn flaky(&self, succeed_after: i32) -> Result<i32, RemoteError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        if i64::from(attempt) > i64::from(succeed_after) {
            Ok(attempt as i32)
        } else {
            Err(RemoteError::application(
                "FlakyError",
                format!("attempt {attempt} of {succeed_after}"),
            ))
        }
    }
}

/// A full test rig: server, transport, connection and the exported root.
pub struct Rig {
    pub server: Arc<RmiServer>,
    pub executor: Arc<BatchExecutor>,
    pub conn: Connection,
    pub root: Arc<TestNode>,
    pub root_ref: RemoteRef,
    pub stats: Arc<TransportStats>,
}

impl Rig {
    /// Builds a rig around the given root node.
    pub fn with_root(root: Arc<TestNode>) -> Rig {
        let server = RmiServer::new();
        let executor = BatchExecutor::install(&server);
        let id = server
            .bind("root", NodeSkeleton::remote_arc(root.clone()))
            .expect("bind root");
        let transport = SimTransport::in_process(server.clone());
        let stats = transport.stats();
        let conn = Connection::new(Arc::new(transport));
        let root_ref = conn.reference(id);
        Rig {
            server,
            executor,
            conn,
            root,
            root_ref,
            stats,
        }
    }

    /// A root with a chain `root -> n1 -> n2 -> ...` of the given values.
    pub fn chain(values: &[i32]) -> Rig {
        let root = TestNode::new("n0", values[0]);
        let mut prev = root.clone();
        for (i, &v) in values.iter().enumerate().skip(1) {
            let node = TestNode::new(&format!("n{i}"), v);
            *prev.next.lock() = Some(node.clone());
            prev = node;
        }
        Rig::with_root(root)
    }

    /// A root with children of the given values (named `c0`, `c1`, ...).
    pub fn with_children(values: &[i32]) -> Rig {
        let root = TestNode::new("root", 0);
        let children: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| TestNode::new(&format!("c{i}"), v))
            .collect();
        *root.children.lock() = children;
        Rig::with_root(root)
    }

    /// Starts a batch with the given policy and returns the typed root.
    pub fn batch(&self, policy: impl Into<PolicySpec>) -> (Batch, BNode) {
        let batch = Batch::new(self.conn.clone(), policy);
        let root = BNode::new(&batch, &self.root_ref);
        (batch, root)
    }

    /// A plain RMI stub for the root.
    pub fn rmi_root(&self) -> NodeStub {
        NodeStub::new(self.root_ref.clone())
    }
}

/// Asserts that an error is the named application exception.
pub fn assert_app_error(err: &RemoteError, exception: &str) {
    assert_eq!(err.kind(), RemoteErrorKind::Application, "err: {err}");
    assert_eq!(err.exception(), exception, "err: {err}");
}
