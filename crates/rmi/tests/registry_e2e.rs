//! End-to-end registry and naming tests: the full client API against a
//! real server, over in-process and TCP transports.

use std::any::Any;
use std::sync::Arc;

#[cfg(target_os = "linux")]
use brmi_rmi::Naming;
use brmi_rmi::{no_such_method, CallCtx, Connection, InArg, OutValue, RemoteObject, RmiServer};
#[cfg(target_os = "linux")]
use brmi_transport::reactor::ReactorServer;
use brmi_transport::sim::SimTransport;
use brmi_wire::{RemoteError, RemoteErrorKind, Value};

struct Echo(&'static str);

impl RemoteObject for Echo {
    fn interface_name(&self) -> &'static str {
        "echo"
    }

    fn invoke(
        &self,
        method: &str,
        _args: &[InArg<'_>],
        _ctx: &CallCtx,
    ) -> Result<OutValue, RemoteError> {
        match method {
            "who" => Ok(OutValue::Data(Value::Str(self.0.to_owned()))),
            other => Err(no_such_method("echo", other)),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn rig() -> (Arc<RmiServer>, Connection) {
    let server = RmiServer::new();
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    (server, conn)
}

#[test]
fn client_bind_lookup_rebind_unbind_cycle() {
    let (server, conn) = rig();
    let a = conn.reference(server.export(Arc::new(Echo("a"))));
    let b = conn.reference(server.export(Arc::new(Echo("b"))));

    conn.bind("svc", &a).unwrap();
    assert_eq!(conn.lookup("svc").unwrap().id(), a.id());
    assert_eq!(
        conn.bind("svc", &b).unwrap_err().kind(),
        RemoteErrorKind::AlreadyBound
    );

    conn.rebind("svc", &b).unwrap();
    assert_eq!(conn.lookup("svc").unwrap().id(), b.id());
    assert_eq!(
        conn.lookup("svc").unwrap().invoke("who", vec![]).unwrap(),
        Value::Str("b".into())
    );

    conn.unbind("svc").unwrap();
    assert_eq!(
        conn.lookup("svc").unwrap_err().kind(),
        RemoteErrorKind::NotBound
    );
    assert_eq!(
        conn.unbind("svc").unwrap_err().kind(),
        RemoteErrorKind::NotBound
    );
}

#[test]
fn registry_names_lists_bindings() {
    let (server, conn) = rig();
    let a = conn.reference(server.export(Arc::new(Echo("a"))));
    conn.bind("zeta", &a).unwrap();
    conn.bind("alpha", &a).unwrap();
    assert_eq!(
        conn.registry_names().unwrap(),
        vec!["alpha".to_owned(), "zeta".to_owned()]
    );
}

#[test]
#[cfg(target_os = "linux")]
fn naming_lookup_over_tcp() {
    let server = RmiServer::new();
    server.bind("echo", Arc::new(Echo("tcp"))).unwrap();
    let tcp = ReactorServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let url = format!("rmi://{}/echo", tcp.local_addr());

    let reference = Naming::lookup(&url).unwrap();
    assert_eq!(
        reference.invoke("who", vec![]).unwrap(),
        Value::Str("tcp".into())
    );

    let missing = format!("rmi://{}/ghost", tcp.local_addr());
    assert_eq!(
        Naming::lookup(&missing).unwrap_err().kind(),
        RemoteErrorKind::NotBound
    );
}

#[test]
#[cfg(target_os = "linux")]
fn many_clients_share_one_registry() {
    let server = RmiServer::new();
    server.bind("echo", Arc::new(Echo("shared"))).unwrap();
    let tcp = ReactorServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let addr = tcp.local_addr();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let reference = Naming::lookup(&format!("rmi://{addr}/echo")).unwrap();
                for _ in 0..10 {
                    assert_eq!(
                        reference.invoke("who", vec![]).unwrap(),
                        Value::Str("shared".into())
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}
