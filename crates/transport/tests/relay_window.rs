//! The relay's coalescing window closes on its deadline.
//!
//! Linux lets a timed futex wait run up to the thread's timer slack (50 µs
//! by default) past its deadline; the relay's flusher sets its own slack to
//! 1 ns, so a lone batch ships within a few microseconds of `max_delay`.
//! This binary sends lone batches through a wall-clock relay over an
//! upstream that answers at once and checks how late each window closed.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use brmi_transport::relay::{BatchRelay, RelayPolicy};
use brmi_transport::sim::SimTransport;
use brmi_transport::RequestHandler;
use brmi_wire::invocation::{BatchResponse, PolicySpec};
use brmi_wire::protocol::{BatchCall, Frame};

const BATCHES: usize = 40;
const MAX_DELAY: Duration = Duration::from_micros(500);

/// Answers every frame with an empty batch reply, noting when it arrived.
struct StampingOrigin {
    arrivals: Mutex<Vec<Instant>>,
}

impl RequestHandler for StampingOrigin {
    fn handle(&self, _frame: Frame) -> Frame {
        self.arrivals.lock().unwrap().push(Instant::now());
        Frame::BatchReturn(BatchResponse {
            session: None,
            slots: vec![],
            cursors: vec![],
            restarts: 0,
        })
    }
}

fn empty_batch() -> Frame {
    Frame::BatchCall(BatchCall {
        key: None,
        request: brmi_wire::invocation::BatchRequest {
            session: None,
            calls: vec![],
            policy: PolicySpec::Abort,
            keep_session: false,
        },
    })
}

#[test]
fn a_lone_batch_ships_within_microseconds_of_the_deadline() {
    let origin = Arc::new(StampingOrigin {
        arrivals: Mutex::new(Vec::new()),
    });
    let relay = BatchRelay::new(
        Arc::new(SimTransport::in_process(origin.clone())),
        RelayPolicy::builder()
            .max_coalesced_calls(1000)
            .max_delay(MAX_DELAY)
            .build(),
    );
    let mut sent = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        sent.push(Instant::now());
        assert!(matches!(relay.handle(empty_batch()), Frame::BatchReturn(_)));
    }
    // No window closed early: each batch reached the origin at least
    // `max_delay` after it was handed to the relay.
    let arrivals = origin.arrivals.lock().unwrap().clone();
    assert_eq!(arrivals.len(), BATCHES, "every batch shipped alone");
    for (sent, arrived) in sent.iter().zip(&arrivals) {
        assert!(*arrived >= *sent + MAX_DELAY, "a window closed early");
    }

    // The flush instant minus the deadline, for every window the timer
    // closed. The median's bucket must end under 30 µs; with the default
    // 50 µs timer slack it lands near 60 µs.
    let overshoot = relay.stats().window_overshoot();
    assert_eq!(overshoot.count, BATCHES as u64);
    assert!(
        overshoot.quantile(0.5) < 30_000,
        "median overshoot {} ns: {overshoot:?}",
        overshoot.quantile(0.5)
    );
}
