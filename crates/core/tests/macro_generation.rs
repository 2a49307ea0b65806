//! Robustness of the `remote_interface!` generator itself: expansion in
//! different scopes, degenerate interfaces, generated-type properties
//! (Send/Sync, Debug, Clone), and documentation attribute forwarding.

use std::sync::Arc;

use brmi::remote_interface;
use brmi_wire::RemoteError;

remote_interface! {
    /// An interface with no methods at all.
    pub interface Empty {
    }
}

remote_interface! {
    /// Exercises every return and argument shape in one interface.
    pub interface Kitchen {
        /// Doc comments on methods are forwarded to the generated items.
        fn void_no_args();
        fn value_no_args() -> i64;
        fn many_values(a: i32, b: String, c: Vec<u8>, d: bool, e: f64) -> String;
        fn opt(input: Option<i32>) -> Option<String>;
        fn pairs(input: Vec<(i32, String)>) -> Vec<(String, i32)>;
        fn make() -> remote Kitchen;
        fn make_many() -> remote_array Kitchen;
        fn take(other: remote Kitchen) -> i64;
        fn mixed(n: i32, other: remote Kitchen, s: String) -> i64;
    }
}

struct KitchenImpl;

impl Kitchen for KitchenImpl {
    fn void_no_args(&self) -> Result<(), RemoteError> {
        Ok(())
    }

    fn value_no_args(&self) -> Result<i64, RemoteError> {
        Ok(9)
    }

    fn many_values(
        &self,
        a: i32,
        b: String,
        c: Vec<u8>,
        d: bool,
        e: f64,
    ) -> Result<String, RemoteError> {
        Ok(format!("{a}/{b}/{}/{d}/{e}", c.len()))
    }

    fn opt(&self, input: Option<i32>) -> Result<Option<String>, RemoteError> {
        Ok(input.map(|n| n.to_string()))
    }

    fn pairs(&self, input: Vec<(i32, String)>) -> Result<Vec<(String, i32)>, RemoteError> {
        Ok(input.into_iter().map(|(n, s)| (s, n)).collect())
    }

    fn make(&self) -> Result<Arc<dyn Kitchen>, RemoteError> {
        Ok(Arc::new(KitchenImpl))
    }

    fn make_many(&self) -> Result<Vec<Arc<dyn Kitchen>>, RemoteError> {
        Ok(vec![Arc::new(KitchenImpl), Arc::new(KitchenImpl)])
    }

    fn take(&self, other: Arc<dyn Kitchen>) -> Result<i64, RemoteError> {
        other.value_no_args()
    }

    fn mixed(&self, n: i32, other: Arc<dyn Kitchen>, s: String) -> Result<i64, RemoteError> {
        Ok(i64::from(n) + other.value_no_args()? + s.len() as i64)
    }
}

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn generated_types_are_send_and_sync() {
    assert_send_sync::<KitchenSkeleton>();
    assert_send_sync::<KitchenStub>();
    assert_send_sync::<KitchenLoopback>();
    assert_send_sync::<BKitchen>();
    assert_send_sync::<CKitchen>();
    assert_send_sync::<EmptySkeleton>();
}

#[test]
fn macro_expands_in_function_scope() {
    remote_interface! {
        /// Declared inside a test function body (C-ANYWHERE).
        pub interface Inner {
            fn ping() -> i32;
        }
    }
    struct InnerImpl;
    impl Inner for InnerImpl {
        fn ping(&self) -> Result<i32, RemoteError> {
            Ok(1)
        }
    }
    let skeleton = InnerSkeleton::remote_arc(Arc::new(InnerImpl));
    assert_eq!(skeleton.interface_name(), "Inner");
}

#[test]
fn kitchen_sink_round_trips_through_a_batch() {
    use brmi::policy::AbortPolicy;
    use brmi::{Batch, BatchExecutor};
    use brmi_rmi::{Connection, RmiServer};
    use brmi_transport::sim::SimTransport;

    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let id = server
        .bind("k", KitchenSkeleton::remote_arc(Arc::new(KitchenImpl)))
        .unwrap();
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    let reference = conn.reference(id);

    let batch = Batch::new(conn.clone(), AbortPolicy);
    let kitchen = BKitchen::new(&batch, &reference);
    let void = kitchen.void_no_args();
    let many = kitchen.many_values(1, "x".into(), vec![1, 2, 3], true, 0.5);
    let some = kitchen.opt(Some(4));
    let none = kitchen.opt(None);
    let pairs = kitchen.pairs(vec![(1, "a".into())]);
    let child = kitchen.make();
    let taken = kitchen.take(&child);
    let mixed = kitchen.mixed(10, &child, "abc".into());
    let cursor = kitchen.make_many();
    let cursor_value = cursor.value_no_args();
    batch.flush().unwrap();

    void.get().unwrap();
    assert_eq!(many.get().unwrap(), "1/x/3/true/0.5");
    assert_eq!(some.get().unwrap(), Some("4".to_owned()));
    assert_eq!(none.get().unwrap(), None);
    assert_eq!(pairs.get().unwrap(), vec![("a".to_owned(), 1)]);
    child.ok().unwrap();
    assert_eq!(taken.get().unwrap(), 9);
    assert_eq!(mixed.get().unwrap(), 10 + 9 + 3);
    assert_eq!(cursor.element_count(), Some(2));
    assert!(cursor.advance());
    assert_eq!(cursor_value.get().unwrap(), 9);
}

#[test]
fn kitchen_sink_round_trips_through_rmi_stubs() {
    use brmi_rmi::{Connection, RmiServer};
    use brmi_transport::sim::SimTransport;

    let server = RmiServer::new();
    let id = server
        .bind("k", KitchenSkeleton::remote_arc(Arc::new(KitchenImpl)))
        .unwrap();
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    let stub = KitchenStub::new(conn.reference(id));

    stub.void_no_args().unwrap();
    assert_eq!(stub.value_no_args().unwrap(), 9);
    assert_eq!(stub.opt(Some(7)).unwrap(), Some("7".to_owned()));
    let child = stub.make().unwrap();
    assert_eq!(stub.take(&child).unwrap(), 9);
    let many = stub.make_many().unwrap();
    assert_eq!(many.len(), 2);
    assert_eq!(many[0].value_no_args().unwrap(), 9);
    assert_eq!(stub.mixed(1, &child, "zz".into()).unwrap(), 1 + 9 + 2);
}

#[test]
fn generated_types_have_nonempty_debug() {
    let skeleton = KitchenSkeleton::new(Arc::new(KitchenImpl));
    assert!(format!("{skeleton:?}").contains("KitchenSkeleton"));
}

#[test]
fn empty_interface_dispatch_rejects_everything() {
    use brmi_rmi::RmiServer;

    struct Nothing;
    impl Empty for Nothing {}

    let server = RmiServer::new();
    let skeleton = EmptySkeleton::remote_arc(Arc::new(Nothing));
    assert_eq!(skeleton.interface_name(), "Empty");
    let err = skeleton
        .invoke("anything", &[], &server.call_ctx())
        .unwrap_err();
    assert_eq!(err.kind(), brmi_wire::RemoteErrorKind::NoSuchMethod);
}

remote_interface! {
    /// Exercises the `#[read_only]` metadata grammar.
    pub interface Meter {
        #[read_only]
        /// Doc comments after the annotation still forward.
        fn reading(sensor: String) -> f64;
        /// Docs before the annotation — the conventional order — work too.
        #[read_only]
        fn twin() -> remote Meter;
        fn calibrate(offset: f64);
    }
}

#[test]
fn method_meta_table_captures_mutability_arity_and_result_kind() {
    let metas = MeterSkeleton::METHOD_META;
    assert_eq!(metas.len(), 3);

    let reading = &metas[0];
    assert_eq!(reading.interface, "Meter");
    assert_eq!(reading.name, "reading");
    assert!(reading.read_only);
    assert_eq!(reading.arity, 1);
    assert!(!reading.returns_remote);
    assert!(reading.cacheable_read());

    let twin = &metas[1];
    assert!(twin.read_only, "read-only remote-returning");
    assert!(twin.returns_remote);
    assert!(!twin.cacheable_read(), "remote results are never cacheable");

    let calibrate = &metas[2];
    assert!(!calibrate.read_only);
    assert_eq!(calibrate.arity, 1);
}

#[test]
fn per_method_consts_match_the_table() {
    assert_eq!(
        MeterSkeleton::METHOD_READING,
        &MeterSkeleton::METHOD_META[0]
    );
    assert_eq!(MeterSkeleton::METHOD_TWIN, &MeterSkeleton::METHOD_META[1]);
    assert_eq!(
        MeterSkeleton::METHOD_CALIBRATE,
        &MeterSkeleton::METHOD_META[2]
    );
}

#[test]
fn interface_meta_reaches_companions_and_skeleton_dispatch() {
    use brmi::Companions;
    use brmi_wire::MethodRegistry;

    let meta = <dyn Meter as Companions>::interface_meta();
    assert_eq!(meta.interface, "Meter");
    assert!(meta.method("reading").unwrap().read_only);
    assert!(meta.method("nope").is_none());

    // The skeleton answers per-object metadata queries (the batch
    // executor's view).
    struct MeterImpl;
    impl Meter for MeterImpl {
        fn reading(&self, _sensor: String) -> Result<f64, RemoteError> {
            Ok(1.5)
        }
        fn twin(&self) -> Result<Arc<dyn Meter>, RemoteError> {
            Ok(Arc::new(MeterImpl))
        }
        fn calibrate(&self, _offset: f64) -> Result<(), RemoteError> {
            Ok(())
        }
    }
    let skeleton = MeterSkeleton::remote_arc(Arc::new(MeterImpl));
    assert!(skeleton.method_meta("reading").unwrap().read_only);
    assert!(!skeleton.method_meta("calibrate").unwrap().read_only);
    assert!(skeleton.method_meta("missing").is_none());

    // And the registry consumes the same table.
    let registry = MethodRegistry::of(&[meta]);
    assert!(registry.is_cacheable_read("reading"));
    assert!(!registry.is_cacheable_read("twin"));
    assert!(!registry.is_cacheable_read("calibrate"));
}

#[test]
fn unannotated_methods_default_to_write() {
    for meta in KitchenSkeleton::METHOD_META {
        assert!(!meta.read_only, "{} must default to write", meta.name);
    }
    assert_eq!(KitchenSkeleton::METHOD_META.len(), 9);
    assert_eq!(KitchenSkeleton::METHOD_MANY_VALUES.arity, 5);
}
