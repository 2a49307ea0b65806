//! End-to-end trace propagation: one traced client flush rides a
//! [`Frame::Traced`] envelope through the relay tier to the origin, each
//! tier records its span against a shared collector, and the test-side
//! waterfall reassembles the client → relay → origin chain.
//!
//! Everything runs on one `VirtualClock` (spans and the relay's simulated
//! time share a timebase) with in-process transports, so span ids,
//! parents, and timestamps are identical on every run.

use std::sync::Arc;
use std::time::Duration;

use brmi::BatchExecutor;
use brmi_apps::noop::{brmi_noops, NoopServer, NoopSkeleton};
use brmi_obs::{SpanRecord, TraceCollector, Tracer};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::clock::{Clock, VirtualClock};
use brmi_transport::relay::{BatchRelay, RelayPolicy};
use brmi_transport::sim::SimTransport;
use brmi_transport::Transport;

const CALLS_PER_BATCH: usize = 3;

/// Builds the three-tier rig, runs one traced flush of
/// [`CALLS_PER_BATCH`] no-ops, and returns everything recorded.
fn run_traced_flush(trace_client: bool) -> (Arc<TraceCollector>, Vec<SpanRecord>) {
    let collector = TraceCollector::new();
    let clock = VirtualClock::new();
    let tracer = Tracer::new(clock.clone(), collector.clone());

    // Origin tier: RMI server with batching, recording `origin.execute`.
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let noop = NoopServer::new();
    origin
        .bind("noop", NoopSkeleton::remote_arc(noop.clone()))
        .expect("fresh origin bind");
    origin.set_tracer(tracer.clone());

    // Relay tier: coalescing budget of exactly one batch, so the flush
    // ships the moment the client's batch arrives — no clock advance or
    // companion traffic needed.
    let upstream: Arc<dyn Transport> = Arc::new(SimTransport::in_process(origin));
    let relay = BatchRelay::with_time_source(
        upstream,
        RelayPolicy::builder()
            .max_coalesced_calls(CALLS_PER_BATCH)
            .max_delay(Duration::from_secs(30))
            .build(),
        clock.clone(),
    );
    relay.set_tracer(tracer.clone());

    // Client tier: a plain connection, optionally traced.
    let mut conn = Connection::new(Arc::new(SimTransport::in_process(relay.clone())));
    if trace_client {
        conn = conn.with_tracer(tracer.clone());
    }
    let root: RemoteRef = conn.lookup("noop").expect("lookup");
    brmi_noops(&conn, &root, CALLS_PER_BATCH).expect("traced flush");

    assert_eq!(noop.calls(), CALLS_PER_BATCH as u64);
    // The clock only moves if something charged simulated time; nothing
    // does here, so every span timestamp is exactly zero.
    assert_eq!(clock.elapsed(), Duration::ZERO);
    let spans = collector.spans();
    (collector, spans)
}

#[test]
fn one_batch_produces_a_client_relay_origin_waterfall() {
    let (collector, spans) = run_traced_flush(true);

    // Spans arrive as the reply unwinds: relay closes its span at flush,
    // the origin during execution, the client last.
    assert_eq!(spans.len(), 3);

    let ids = collector.trace_ids();
    assert_eq!(ids.len(), 1, "one flush is one trace");
    let rows = collector.waterfall(ids[0]);
    let shape: Vec<(usize, &str)> = rows.iter().map(|row| (row.depth, row.span.name)).collect();
    assert_eq!(
        shape,
        vec![
            (0, "client.flush"),
            (1, "relay.coalesce"),
            (2, "origin.execute"),
        ]
    );

    // The causal chain is carried on the wire, not assumed: each tier's
    // parent is the previous tier's span id.
    assert_eq!(rows[0].span.parent, 0);
    assert_eq!(rows[1].span.parent, rows[0].span.span_id);
    assert_eq!(rows[2].span.parent, rows[1].span.span_id);
    assert_eq!(rows[0].span.trace_id, rows[2].span.trace_id);

    // One shared id sequence, minted in tier order as the frame travels.
    assert_eq!(rows[0].span.span_id, 1);
    assert_eq!(rows[1].span.span_id, 2);
    assert_eq!(rows[2].span.span_id, 3);

    let rendered = collector.render_waterfall(ids[0]);
    assert!(rendered.contains("client.flush"));
    assert!(rendered.contains("  relay.coalesce"));
    assert!(rendered.contains("    origin.execute"));
}

#[test]
fn traced_runs_are_identical_span_for_span() {
    let (_, first) = run_traced_flush(true);
    let (_, second) = run_traced_flush(true);
    assert_eq!(first, second, "virtual-time traces must be byte-stable");
}

#[test]
fn untraced_client_records_nothing_through_traced_tiers() {
    // Relay and origin both hold tracers, but without a client envelope
    // there is no trace to join — the wire stays envelope-free and the
    // collector stays empty.
    let (_, spans) = run_traced_flush(false);
    assert!(spans.is_empty(), "unexpected spans: {spans:?}");
}
