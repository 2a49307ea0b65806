//! Server-level durability: keyed executions, registry mutations, DGC
//! leases and application state all survive an origin restart through
//! `RmiServer::attach_durable`, with exactly-once visible semantics for
//! keyed retries that straddle the crash.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use brmi_durable::{CrashPoint, LogConfig, TempDir};
use brmi_rmi::{
    no_such_method, CallCtx, DgcConfig, DurableOptions, DurableState, InArg, OutValue,
    RemoteObject, RmiServer,
};
use brmi_transport::clock::{Clock, VirtualClock};
use brmi_transport::RequestHandler;
use brmi_wire::protocol::{Frame, IdemKey};
use brmi_wire::{ObjectId, RemoteError, Value};

/// A stateful service: `hit` increments and returns the new count;
/// `spawn` returns a fresh remote object (a marshalled export).
struct Counter {
    hits: AtomicI64,
}

impl Counter {
    fn new() -> Arc<Counter> {
        Arc::new(Counter {
            hits: AtomicI64::new(0),
        })
    }

    fn value(&self) -> i64 {
        self.hits.load(Ordering::Relaxed)
    }
}

impl RemoteObject for Counter {
    fn interface_name(&self) -> &'static str {
        "counter"
    }

    fn invoke(
        &self,
        method: &str,
        _args: &[InArg<'_>],
        _ctx: &CallCtx,
    ) -> Result<OutValue, RemoteError> {
        match method {
            "hit" => Ok(OutValue::Data(Value::I64(
                self.hits.fetch_add(1, Ordering::Relaxed) + 1,
            ))),
            "spawn" => Ok(OutValue::Remote(Counter::new())),
            other => Err(no_such_method("counter", other)),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl DurableState for Counter {
    fn capture(&self) -> Value {
        Value::I64(self.value())
    }

    fn restore(&self, state: &Value) {
        if let Value::I64(n) = state {
            self.hits.store(*n, Ordering::Relaxed);
        }
    }
}

/// The app's deterministic setup phase, identical in the original and
/// every recovered incarnation (as `attach_durable` requires).
fn setup() -> (Arc<RmiServer>, Arc<Counter>, ObjectId) {
    let server = RmiServer::new();
    let counter = Counter::new();
    let id = server
        .bind("ctr", Arc::clone(&counter) as Arc<dyn RemoteObject>)
        .expect("bind");
    server.register_durable_state("ctr", Arc::clone(&counter) as Arc<dyn DurableState>);
    (server, counter, id)
}

fn key(seq: u64) -> IdemKey {
    IdemKey {
        client_id: 1,
        seq,
        acked: 0,
    }
}

fn hit(server: &RmiServer, target: ObjectId, seq: u64) -> Frame {
    server.handle(Frame::Call {
        key: Some(key(seq)),
        target,
        method: "hit".into(),
        args: vec![],
    })
}

fn no_snapshots() -> DurableOptions {
    DurableOptions {
        snapshot_every: 0,
        ..DurableOptions::default()
    }
}

#[test]
fn keyed_executions_replay_after_restart() {
    let dir = TempDir::new("keyed-replay");
    {
        let (server, _counter, id) = setup();
        server
            .attach_durable(dir.path(), no_snapshots())
            .expect("attach");
        for seq in 0..5 {
            assert_eq!(
                hit(&server, id, seq),
                Frame::Return(Value::I64(seq as i64 + 1))
            );
        }
    }

    let (server, counter, id) = setup();
    let report = server
        .attach_durable(dir.path(), no_snapshots())
        .expect("recover");
    assert_eq!(report.replayed_executions, 5);
    assert!(!report.restored_snapshot);
    assert_eq!(counter.value(), 5, "replay rebuilt the application state");

    // A client retrying a pre-crash key sees the journaled reply, not a
    // sixth execution.
    assert_eq!(hit(&server, id, 4), Frame::Return(Value::I64(5)));
    assert_eq!(counter.value(), 5);
    assert_eq!(server.reply_cache().replays(), 1);
    // Fresh traffic continues where the original left off.
    assert_eq!(hit(&server, id, 5), Frame::Return(Value::I64(6)));
}

#[test]
fn registry_mutations_recover_without_app_setup() {
    let dir = TempDir::new("registry-recover");
    {
        let (server, _counter, id) = setup();
        server
            .attach_durable(dir.path(), no_snapshots())
            .expect("attach");
        // Post-attach mutations are journaled.
        server.registry().rebind("ctr", ObjectId(40));
        server.registry().bind("extra", id).expect("bind");
        server.registry().rebind("extra", ObjectId(41));
        server.registry().bind("doomed", ObjectId(9)).expect("bind");
        server.registry().unbind("doomed").expect("unbind");
    }

    // `recover` = fresh default server + replay; middleware-only state.
    let (server, report) = RmiServer::recover(dir.path()).expect("recover");
    assert!(report.replayed_events >= 5);
    assert_eq!(server.registry().lookup("ctr").expect("ctr"), ObjectId(40));
    assert_eq!(
        server.registry().lookup("extra").expect("extra"),
        ObjectId(41)
    );
    assert!(server.registry().lookup("doomed").is_err());
}

#[test]
fn dgc_leases_resume_after_restart() {
    let dir = TempDir::new("lease-recover");
    let clock = VirtualClock::new();
    let max_lease = Duration::from_secs(60);
    let leased_id;
    {
        let (server, _counter, id) = setup();
        server.enable_dgc(clock.clone(), DgcConfig { max_lease });
        server
            .attach_durable(dir.path(), no_snapshots())
            .expect("attach");
        // An unkeyed call whose result is a marshalled export: the grant
        // is journaled standalone.
        let value = server.dispatch_call(id, "spawn", vec![]).expect("spawn");
        leased_id = match value {
            Value::RemoteRef(id) => id,
            other => panic!("expected remote ref, got {other:?}"),
        };
        assert!(server.dgc().expect("dgc").is_leased(leased_id));
    }

    let (server, _counter, _id) = setup();
    let clock = VirtualClock::new(); // restart: clock begins at zero again
    let dgc = server.enable_dgc(clock.clone(), DgcConfig { max_lease });
    server
        .attach_durable(dir.path(), no_snapshots())
        .expect("recover");
    assert!(
        dgc.is_leased(leased_id),
        "the journaled lease resumes on the restarted origin"
    );
    // The journaled absolute expiry still governs: advancing past it
    // expires the lease.
    clock.advance(max_lease + Duration::from_secs(1));
    assert_eq!(server.dgc_sweep(), 1);
    assert!(!dgc.is_leased(leased_id));
}

#[test]
fn snapshots_compact_the_journal_and_restore_app_state() {
    let dir = TempDir::new("snapshot-recover");
    let options = DurableOptions {
        log: LogConfig {
            segment_bytes: 256,
            ..LogConfig::default()
        },
        snapshot_every: 4,
    };
    {
        let (server, _counter, id) = setup();
        server.attach_durable(dir.path(), options).expect("attach");
        for seq in 0..12 {
            hit(&server, id, seq);
        }
        let stats = server.journal().expect("journal").stats();
        assert!(stats.snapshots >= 1, "cadence wrote snapshots: {stats:?}");
        assert!(
            server.journal().expect("journal").log().segment_count() <= 2,
            "snapshots garbage-collect covered segments"
        );
    }

    let (server, counter, id) = setup();
    let report = server.attach_durable(dir.path(), options).expect("recover");
    assert!(report.restored_snapshot);
    assert!(
        report.replayed_executions < 12,
        "the snapshot absorbed the compacted prefix: {report:?}"
    );
    assert_eq!(counter.value(), 12, "snapshot + replay rebuild the count");
    // A key whose reply lives only in the snapshot still replays.
    assert_eq!(hit(&server, id, 11), Frame::Return(Value::I64(12)));
    assert_eq!(counter.value(), 12);
}

#[test]
fn snapshots_written_under_keyed_traffic_recover_exactly() {
    const CLIENTS: u64 = 4;
    const HITS: u64 = 100;
    let dir = TempDir::new("snapshot-race");
    let options = DurableOptions {
        log: LogConfig {
            segment_bytes: 1024,
            ..LogConfig::default()
        },
        snapshot_every: 8,
    };
    // Each client's last reply, to be asked for again after the restart.
    let last_replies: Vec<Frame> = {
        let (server, counter, id) = setup();
        server.attach_durable(dir.path(), options).expect("attach");
        let start = std::sync::Barrier::new(CLIENTS as usize);
        let last_replies = std::thread::scope(|scope| {
            let clients: Vec<_> = (1..=CLIENTS)
                .map(|client_id| {
                    let (server, start) = (&server, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut last = None;
                        for seq in 0..HITS {
                            // Acking as it goes, so snapshots stay small
                            // and segments get reclaimed under traffic.
                            last = Some(server.handle(Frame::Call {
                                key: Some(IdemKey {
                                    client_id,
                                    seq,
                                    acked: seq,
                                }),
                                target: id,
                                method: "hit".into(),
                                args: vec![],
                            }));
                        }
                        last.expect("at least one hit")
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client panicked"))
                .collect()
        });
        assert_eq!(counter.value(), (CLIENTS * HITS) as i64);
        let stats = server.journal().expect("journal").stats();
        assert!(stats.snapshots >= 10, "cadence kept up: {stats:?}");
        last_replies
    };

    // A snapshot is the state as of its floor and nothing later: an
    // execution captured *and* replayed would count twice.
    let (server, counter, id) = setup();
    let report = server.attach_durable(dir.path(), options).expect("recover");
    assert!(report.restored_snapshot);
    assert_eq!(counter.value(), (CLIENTS * HITS) as i64, "{report:?}");
    for (client_id, reply) in (1..=CLIENTS).zip(last_replies) {
        let again = server.handle(Frame::Call {
            key: Some(IdemKey {
                client_id,
                seq: HITS - 1,
                acked: HITS - 1,
            }),
            target: id,
            method: "hit".into(),
            args: vec![],
        });
        assert_eq!(again, reply, "client {client_id}'s last reply replays");
    }
    assert_eq!(counter.value(), (CLIENTS * HITS) as i64);
}

#[test]
fn crash_mid_workload_never_double_executes() {
    let dir = TempDir::new("crash-mid");
    {
        let (server, counter, id) = setup();
        server
            .attach_durable(dir.path(), no_snapshots())
            .expect("attach");
        for seq in 0..3 {
            assert_eq!(
                hit(&server, id, seq),
                Frame::Return(Value::I64(seq as i64 + 1))
            );
        }
        // Tear the fourth record a few bytes in: the execution happens
        // but its journal commit fails, so the client gets a transport
        // error (a retry signal), never a cacheable success.
        server
            .journal()
            .expect("journal")
            .log()
            .arm_crash(CrashPoint::at_byte(5));
        for seq in 3..6 {
            match hit(&server, id, seq) {
                Frame::Error(env) => assert_eq!(env.kind, "transport", "seq {seq}: {env:?}"),
                other => panic!("seq {seq}: expected a crash-path error, got {other:?}"),
            }
        }
        // Each attempt executed in the dying process's memory before its
        // journal commit failed; none of that survives the restart.
        assert_eq!(counter.value(), 6);
    }

    let (server, counter, id) = setup();
    let report = server
        .attach_durable(dir.path(), no_snapshots())
        .expect("recover");
    assert_eq!(
        report.replayed_executions, 3,
        "the torn record was truncated"
    );
    assert_eq!(report.truncated_records, 1);
    assert_eq!(counter.value(), 3);

    // The client retries every key it never got a success for. Journaled
    // keys replay; the torn and never-attempted ones execute fresh —
    // each exactly once, so the counter lands on 6 with monotone replies.
    for seq in 0..6 {
        assert_eq!(
            hit(&server, id, seq),
            Frame::Return(Value::I64(seq as i64 + 1)),
            "seq {seq}"
        );
    }
    assert_eq!(counter.value(), 6);
}
