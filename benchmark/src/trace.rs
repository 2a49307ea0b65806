//! The benchmark's own span recorder: wrappers in `rig.rs` open a span
//! around each call into a layer, spans land in per-thread buffers, and
//! the buffers are drained once, after the traced window.
//!
//! Nothing here touches the system under test; spans inside the program
//! are a later change (ROADMAP "stage-level latency attribution").

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans each thread keeps verbatim for `trace-<workload>.jsonl`; later
/// spans still count in [`Totals`]. Bounds the file to tens of megabytes
/// on the workload that records millions of `app.call` spans.
pub const KEPT_PER_THREAD: usize = 1 << 14;

/// Every span the wrappers record, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    ClientOp,
    CoreRecord,
    CoreFlush,
    CoreClaim,
    ClientRequest,
    EdgeHandle,
    RelayHandle,
    RelayUpstream,
    OriginHandle,
    AppCall,
}

pub const SPAN_NAMES: usize = 10;

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::ClientOp => "client.op",
            SpanName::CoreRecord => "core.record",
            SpanName::CoreFlush => "core.flush",
            SpanName::CoreClaim => "core.claim",
            SpanName::ClientRequest => "client.request",
            SpanName::EdgeHandle => "edge.handle",
            SpanName::RelayHandle => "relay.handle",
            SpanName::RelayUpstream => "relay.upstream",
            SpanName::OriginHandle => "origin.handle",
            SpanName::AppCall => "app.call",
        }
    }

    /// The layer whose boundary the span sits on.
    pub fn layer(self) -> &'static str {
        match self {
            SpanName::ClientOp => "client",
            SpanName::CoreRecord | SpanName::CoreFlush | SpanName::CoreClaim => "core",
            SpanName::ClientRequest | SpanName::RelayUpstream => "transport",
            SpanName::EdgeHandle => "fetcher",
            SpanName::RelayHandle => "relay",
            SpanName::OriginHandle => "rmi",
            SpanName::AppCall => "apps",
        }
    }

    /// Client-side spans carry `(caller, op)` as their request; server-side
    /// spans carry their tier's arrival number.
    fn is_client_side(self) -> bool {
        matches!(
            self,
            SpanName::ClientOp
                | SpanName::CoreRecord
                | SpanName::CoreFlush
                | SpanName::CoreClaim
                | SpanName::ClientRequest
        )
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
    /// `thread`-unique sequence number; `(thread, seq)` identifies a span.
    pub seq: u32,
    /// `seq` of the enclosing span on the same thread.
    pub parent: Option<u32>,
    pub req: u64,
}

/// Packs a client request identifier.
pub fn client_req(caller: usize, op_seq: u64) -> u64 {
    ((caller as u64) << 48) | (op_seq & 0xFFFF_FFFF_FFFF)
}

/// Count and summed duration per span name, over every span recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    count: [u64; SPAN_NAMES],
    total_ns: [u64; SPAN_NAMES],
}

impl Totals {
    pub fn add(&mut self, name: SpanName, duration_ns: u64) {
        self.count[name as usize] += 1;
        self.total_ns[name as usize] += duration_ns;
    }

    pub fn merge(&mut self, other: &Totals) {
        for i in 0..SPAN_NAMES {
            self.count[i] += other.count[i];
            self.total_ns[i] += other.total_ns[i];
        }
    }

    #[cfg(test)]
    pub fn of(spans: &[Span]) -> Totals {
        let mut totals = Totals::default();
        for span in spans {
            totals.add(span.name, span.end_ns - span.start_ns);
        }
        totals
    }

    pub fn count(&self, name: SpanName) -> f64 {
        self.count[name as usize] as f64
    }

    pub fn total_ns(&self, name: SpanName) -> f64 {
        self.total_ns[name as usize] as f64
    }

    pub fn mean_ns(&self, name: SpanName) -> f64 {
        match self.count[name as usize] {
            0 => 0.0,
            n => self.total_ns[name as usize] as f64 / n as f64,
        }
    }

    /// The spans directly inside `name` by the static nesting of the
    /// topology that produced these totals: a span that crosses a socket
    /// has no recorded parent, so the nesting is fixed here, and a tier
    /// that is absent (count 0) passes its place to the next one in.
    pub fn children(&self, name: SpanName) -> Vec<SpanName> {
        use SpanName::*;
        let present = |n: SpanName| self.count[n as usize] > 0;
        let first_present = |chain: &[SpanName]| chain.iter().copied().find(|&n| present(n));
        match name {
            ClientOp if present(CoreFlush) => vec![CoreRecord, CoreFlush, CoreClaim],
            ClientOp | CoreFlush => vec![ClientRequest],
            ClientRequest => first_present(&[EdgeHandle, OriginHandle])
                .into_iter()
                .collect(),
            EdgeHandle => vec![RelayHandle],
            RelayHandle => vec![RelayUpstream],
            RelayUpstream => vec![OriginHandle],
            OriginHandle => vec![AppCall],
            CoreRecord | CoreClaim | AppCall => vec![],
        }
    }

    /// A layer's self time over the run: the summed duration of its spans
    /// minus the summed duration of the spans directly inside them.
    pub fn self_ns(&self, name: SpanName) -> f64 {
        let inner: f64 = self.children(name).iter().map(|&c| self.total_ns(c)).sum();
        self.total_ns(name) - inner
    }
}

struct ThreadBuf {
    kept: Vec<Span>,
    totals: Totals,
}

struct Open {
    name: SpanName,
    start_ns: u64,
    seq: u32,
    req: u64,
}

struct Local {
    thread: u32,
    next_seq: u32,
    stack: Vec<Open>,
    buf: Arc<Mutex<ThreadBuf>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static BUFS: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switches recording on or off. Spans opened while off cost one relaxed
/// load; spans open across a switch are dropped.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    // Publishes nothing but itself: recorders read their own thread's state.
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
#[must_use]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span on this thread. `req` of `None` inherits the enclosing
/// span's request identifier.
pub fn span(name: SpanName, req: Option<u64>) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { active: false };
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let local = local.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf {
                kept: Vec::with_capacity(KEPT_PER_THREAD),
                totals: Totals::default(),
            }));
            BUFS.lock()
                .expect("trace buffers lock")
                .push(Arc::clone(&buf));
            Local {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                next_seq: 0,
                stack: Vec::with_capacity(8),
                buf,
            }
        });
        let seq = local.next_seq;
        local.next_seq = local.next_seq.wrapping_add(1);
        let req = req
            .or_else(|| local.stack.last().map(|open| open.req))
            .unwrap_or(0);
        local.stack.push(Open {
            name,
            start_ns: now_ns(),
            seq,
            req,
        });
    });
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let Some(local) = local.as_mut() else { return };
            let Some(open) = local.stack.pop() else {
                return;
            };
            if !ENABLED.load(Ordering::Relaxed) {
                return;
            }
            let mut buf = local.buf.lock().expect("trace buffer lock");
            buf.totals.add(open.name, end_ns - open.start_ns);
            if buf.kept.len() < KEPT_PER_THREAD {
                buf.kept.push(Span {
                    name: open.name,
                    start_ns: open.start_ns,
                    end_ns,
                    thread: local.thread,
                    seq: open.seq,
                    parent: local.stack.last().map(|outer| outer.seq),
                    req: open.req,
                });
            }
        });
    }
}

/// Takes everything recorded so far out of every thread's buffer.
pub fn drain() -> (Vec<Span>, Totals) {
    let mut spans = Vec::new();
    let mut totals = Totals::default();
    for buf in BUFS.lock().expect("trace buffers lock").iter() {
        let mut buf = buf.lock().expect("trace buffer lock");
        spans.append(&mut buf.kept);
        totals.merge(&buf.totals);
        buf.totals = Totals::default();
    }
    spans.sort_by_key(|span| (span.start_ns, span.thread, span.seq));
    (spans, totals)
}

/// Mean cost of one open-and-close, so a reader can discount the spans a
/// layer's self time contains.
pub fn span_cost_ns() -> f64 {
    let was = ENABLED.swap(true, Ordering::Relaxed);
    const N: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..N {
        drop(span(SpanName::AppCall, Some(0)));
    }
    let cost = start.elapsed().as_nanos() as f64 / f64::from(N);
    ENABLED.store(was, Ordering::Relaxed);
    drain();
    cost
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = match span.parent {
            Some(seq) => format!("\"{}.{}\"", span.thread, seq),
            None => "null".to_owned(),
        };
        let req = if span.name.is_client_side() {
            format!("c{}.{}", span.req >> 48, span.req & 0xFFFF_FFFF_FFFF)
        } else {
            format!("a{}", span.req)
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"id\":\"{}.{}\",\"parent\":{},\"req\":\"{}\"}}",
            span.name.as_str(),
            span.name.layer(),
            span.start_ns,
            span.end_ns,
            span.thread,
            span.thread,
            span.seq,
            parent,
            req,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use SpanName::*;

    fn s(name: SpanName, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            thread: 0,
            seq: 0,
            parent: None,
            req: 0,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_direct_tree() {
        // One batched operation against a direct origin:
        // op 0..100 ⊃ record 0..10, flush 10..80 ⊃ request 12..78 ⊃
        // handle 30..60 ⊃ two app calls of 5 each; claim 80..95.
        let totals = Totals::of(&[
            s(ClientOp, 0, 100),
            s(CoreRecord, 0, 10),
            s(CoreFlush, 10, 80),
            s(ClientRequest, 12, 78),
            s(OriginHandle, 30, 60),
            s(AppCall, 35, 40),
            s(AppCall, 45, 50),
            s(CoreClaim, 80, 95),
        ]);
        assert_eq!(totals.self_ns(ClientOp), 100.0 - 10.0 - 70.0 - 15.0);
        assert_eq!(totals.self_ns(CoreFlush), 70.0 - 66.0);
        assert_eq!(
            totals.self_ns(ClientRequest),
            66.0 - 30.0,
            "the hop: both directions"
        );
        assert_eq!(totals.self_ns(OriginHandle), 30.0 - 10.0);
        assert_eq!(totals.self_ns(AppCall), 10.0);
        assert_eq!(totals.mean_ns(AppCall), 5.0);
        let sum: f64 = [
            ClientOp,
            CoreRecord,
            CoreFlush,
            CoreClaim,
            ClientRequest,
            OriginHandle,
            AppCall,
        ]
        .iter()
        .map(|&n| totals.self_ns(n))
        .sum();
        assert_eq!(sum, 100.0, "self times add up to the operation");
    }

    #[test]
    fn absent_tiers_pass_their_place_inwards() {
        // An unbatched call has no core spans; an edge topology puts the
        // fetcher between the request and the origin.
        let single = Totals::of(&[
            s(ClientOp, 0, 50),
            s(ClientRequest, 5, 45),
            s(OriginHandle, 20, 30),
        ]);
        assert_eq!(single.children(ClientOp), vec![ClientRequest]);
        assert_eq!(single.children(ClientRequest), vec![OriginHandle]);
        assert_eq!(single.self_ns(ClientOp), 10.0);
        let edge = Totals::of(&[
            s(ClientRequest, 0, 100),
            s(EdgeHandle, 10, 90),
            s(RelayHandle, 20, 80),
            s(RelayUpstream, 40, 70),
            s(OriginHandle, 50, 60),
        ]);
        assert_eq!(edge.children(ClientRequest), vec![EdgeHandle]);
        assert_eq!(edge.self_ns(EdgeHandle), 20.0);
        assert_eq!(
            edge.self_ns(RelayHandle),
            30.0,
            "window wait and bookkeeping"
        );
        assert_eq!(edge.self_ns(RelayUpstream), 20.0, "the second hop");
    }

    #[test]
    fn recorder_links_parents_and_inherits_requests() {
        set_enabled(true);
        {
            let _op = span(ClientOp, Some(client_req(3, 9)));
            let _flush = span(CoreFlush, None);
            drop(span(ClientRequest, None));
        }
        set_enabled(false);
        drop(span(ClientOp, Some(1)));
        let (spans, totals) = drain();
        let mine: Vec<&Span> = spans.iter().filter(|s| s.req == client_req(3, 9)).collect();
        assert_eq!(mine.len(), 3, "nothing recorded while off");
        let by = |name| **mine.iter().find(|s| s.name == name).expect("span recorded");
        assert_eq!(by(ClientOp).parent, None);
        assert_eq!(by(CoreFlush).parent, Some(by(ClientOp).seq));
        assert_eq!(by(ClientRequest).parent, Some(by(CoreFlush).seq));
        assert!(by(ClientOp).end_ns >= by(ClientRequest).end_ns);
        assert!(totals.count(ClientRequest) >= 1.0);
    }
}
