//! The owned and the borrowed dispatch entry points are one behaviour:
//! every request shape × keyed × traced, plus each control frame, gets
//! the same reply and the same reply-cache accounting whether it enters
//! through `handle` (an owned frame, as journal recovery and the
//! codec-skipping in-proc mode deliver it) or through `handle_ref` (a
//! borrowed decode of its wire bytes, as every socket transport delivers
//! it).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use brmi::BatchExecutor;
use brmi_obs::{TraceCollector, Tracer};
use brmi_rmi::{no_such_method, CallCtx, DgcConfig, InArg, OutValue, RemoteObject, RmiServer};
use brmi_transport::clock::VirtualClock;
use brmi_transport::RequestHandler;
use brmi_wire::codec::WireCodec;
use brmi_wire::invocation::{BatchRequest, CallSeq, InvocationData, PolicySpec, SessionId, Target};
use brmi_wire::protocol::{BatchCall, Frame, FrameRef, IdemKey, TraceCtx};
use brmi_wire::{ObjectId, RemoteError, Value};

/// `hit` increments and returns the new count, so a second execution of
/// the same request is visible in the reply.
struct Counter {
    hits: AtomicI64,
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
            other => Err(no_such_method("counter", other)),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One of two identically seeded servers: batching, DGC and a tracer
/// installed, one counter bound.
fn twin() -> (Arc<RmiServer>, Arc<Counter>, ObjectId) {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let clock = VirtualClock::new();
    server.enable_dgc(clock.clone(), DgcConfig::default());
    server.set_tracer(Tracer::new(clock, TraceCollector::new()));
    let counter = Arc::new(Counter {
        hits: AtomicI64::new(0),
    });
    let id = server
        .bind("ctr", Arc::clone(&counter) as Arc<dyn RemoteObject>)
        .expect("bind");
    (server, counter, id)
}

fn call(key: Option<IdemKey>, target: ObjectId) -> Frame {
    Frame::Call {
        key,
        target,
        method: "hit".into(),
        args: vec![],
    }
}

fn two_hits(target: ObjectId) -> BatchRequest {
    let hit = |seq| InvocationData {
        seq: CallSeq(seq),
        target: Target::Remote(target),
        method: "hit".into(),
        args: vec![],
        cursor: None,
        opens_cursor: false,
    };
    BatchRequest {
        session: None,
        calls: vec![hit(0), hit(1)],
        policy: PolicySpec::Abort,
        keep_session: false,
    }
}

fn batch(key: Option<IdemKey>, target: ObjectId) -> Frame {
    Frame::BatchCall(BatchCall {
        key,
        request: two_hits(target),
    })
}

fn super_batch(keys: [Option<IdemKey>; 2], target: ObjectId) -> Frame {
    Frame::SuperBatchCall(
        keys.into_iter()
            .map(|key| BatchCall {
                key,
                request: two_hits(target),
            })
            .collect(),
    )
}

/// Every request the table drives, with how many reply-cache slots a
/// verbatim re-send of it replays (zero for unkeyed and control frames).
fn table(target: ObjectId) -> Vec<(String, Frame, u64)> {
    let mut seq = 0;
    let mut key = || {
        seq += 1;
        IdemKey {
            client_id: 1,
            seq,
            acked: 0,
        }
    };
    let ctx = TraceCtx {
        trace_id: 900,
        span_id: 901,
        parent: 0,
    };
    let mut rows = Vec::new();
    for traced in [false, true] {
        for keyed in [false, true] {
            let shapes = [
                ("call", call(keyed.then(&mut key), target), 1),
                ("batch", batch(keyed.then(&mut key), target), 1),
                (
                    "super-batch",
                    super_batch([keyed.then(&mut key), keyed.then(&mut key)], target),
                    2,
                ),
            ];
            for (shape, frame, slots) in shapes {
                rows.push((
                    format!("{shape} keyed={keyed} traced={traced}"),
                    frame.with_trace(traced.then_some(ctx)),
                    if keyed { slots } else { 0 },
                ));
            }
        }
    }
    let controls = [
        ("release-session", Frame::ReleaseSession(SessionId(9))),
        (
            "dirty",
            Frame::Dirty {
                ids: vec![target],
                lease_millis: 1000,
            },
        ),
        ("clean", Frame::Clean { ids: vec![target] }),
        ("reply-as-request", Frame::Return(Value::Null)),
    ];
    for (name, frame) in controls {
        rows.push((
            format!("{name} traced"),
            frame.clone().with_trace(Some(ctx)),
            0,
        ));
        rows.push((name.to_owned(), frame, 0));
    }
    rows
}

#[test]
fn owned_and_borrowed_dispatch_agree_on_every_request_shape() {
    let (owned, owned_counter, target) = twin();
    let (borrowed, borrowed_counter, borrowed_target) = twin();
    assert_eq!(target, borrowed_target, "twins are seeded identically");

    let via_owned = |frame: &Frame| owned.handle(frame.clone());
    let via_borrowed = |frame: &Frame| {
        let bytes = frame.to_wire_bytes();
        borrowed.handle_ref(FrameRef::from_wire_bytes(&bytes).expect("borrowed decode"))
    };
    let counts = |server: &RmiServer, counter: &Counter| {
        (
            server.reply_cache().executions(),
            server.reply_cache().replays(),
            counter.hits.load(Ordering::Relaxed),
        )
    };

    let rows = table(target);
    assert_eq!(rows.len(), 12 + 8);
    for (name, frame, keyed_slots) in &rows {
        let before = counts(&owned, &owned_counter);
        let first = via_owned(frame);
        assert_eq!(first, via_borrowed(frame), "{name}: replies differ");
        let after = counts(&owned, &owned_counter);
        assert_eq!(
            after,
            counts(&borrowed, &borrowed_counter),
            "{name}: accounting differs"
        );
        assert_eq!(
            after.0 - before.0,
            *keyed_slots,
            "{name}: one guarded execution per key"
        );
        assert_eq!(
            first.trace_ctx().is_some(),
            frame.trace_ctx().is_some(),
            "{name}: a traced request gets a traced reply"
        );

        if *keyed_slots == 0 {
            continue;
        }
        // A verbatim re-send replays every slot without executing, on
        // both paths. (The envelope's span id is minted per request, so
        // the replayed payload is compared bare.)
        let replayed = via_owned(frame);
        assert_eq!(replayed, via_borrowed(frame), "{name}: replays differ");
        assert_eq!(
            replayed.split_trace().1,
            first.clone().split_trace().1,
            "{name}: a replay is the original reply"
        );
        let resent = counts(&owned, &owned_counter);
        assert_eq!(
            resent,
            counts(&borrowed, &borrowed_counter),
            "{name}: replay accounting differs"
        );
        assert_eq!(
            resent,
            (after.0, after.1 + keyed_slots, after.2),
            "{name}: a re-sent key replays and never executes"
        );
    }
    // 2 (traced/bare) × unkeyed and keyed × (1 + 2 + 4) hits; replays add none.
    assert_eq!(owned_counter.hits.load(Ordering::Relaxed), 28);
}
