//! Every call into the system under test lives in this file: the four
//! topologies, the callers' operations, the span wrappers, the registry
//! reads and the direct timings of single layers.
//!
//! The surface used here is the one the ROADMAP refactors intend to keep
//! (listed in the README). No `Frame` variant is named and none of
//! `TcpPool`, `TcpServer`, `TcpTransport`, `RetryTransport` or the tiers'
//! `stats()` getters is read, so those refactors can land without a
//! companion change here. A change to the shape of the `Transport` or
//! `RequestHandler` trait does need one.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use brmi::policy::{AbortPolicy, ContinuePolicy};
use brmi::{Batch, BatchExecutor, BatchFuture};
use brmi_apps::bank::{Account, BCreditCard, Bank, CreditCard, CreditCardSkeleton};
use brmi_apps::noop::{Noop, NoopServer, NoopSkeleton, NoopStub};
use brmi_apps::translator::{
    BTranslator, DictionaryTranslator, Translator, TranslatorSkeleton, Word,
};
use brmi_durable::{Log, LogConfig};
use brmi_obs::{MetricValue, Registry, Snapshot};
use brmi_rmi::{Connection, DurableOptions, DurableState, ObjectTable, RemoteRef, RmiServer};
use brmi_transport::fetcher::BatchFetcher;
use brmi_transport::mux::MuxClient;
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_transport::relay::{BatchRelay, ReadCachePolicy, RelayPolicy};
use brmi_transport::{RequestHandler, Transport};
use brmi_wire::protocol::{Frame, FrameRef};
use brmi_wire::{MethodRegistry, RemoteError, Value, WireCodec};

use crate::gen::{self, EdgeOp, HOT_ACCOUNTS, WRITE_OWN};
use crate::trace::{client_req, span, SpanName};

/// Purchases per `durable_keyed` flush.
const DURABLE_CALLS: usize = 8;
/// High enough that no purchase in a run is ever refused.
const CREDIT_LIMIT: f64 = 1e15;
/// Request/reply pairs the traced client keeps for the codec timings.
const CAPTURED_FRAMES: usize = 64;

/// The four workloads. Names are fixed; later issues refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RmiSingle,
    BatchWide,
    DurableKeyed,
    EdgeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RmiSingle,
        Workload::BatchWide,
        Workload::DurableKeyed,
        Workload::EdgeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmiSingle => "rmi_single",
            Workload::BatchWide => "batch_wide",
            Workload::DurableKeyed => "durable_keyed",
            Workload::EdgeMix => "edge_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop callers. One for `batch_wide` because two CPU-bound
    /// callers on two cores measure the scheduler; eight where callers
    /// mostly sit parked on replies and concurrency is what presents
    /// appends to group commit and batches to the relay's window.
    pub fn callers(self) -> usize {
        match self {
            Workload::RmiSingle => 2,
            Workload::BatchWide => 1,
            Workload::DurableKeyed | Workload::EdgeMix => 8,
        }
    }

    /// Operations each caller runs before the measured window — a fixed
    /// count, so warm-up is the same work on every commit and its cost
    /// shows in `setup_s`.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::RmiSingle => 4_000,
            Workload::BatchWide => 100,
            Workload::DurableKeyed => 150,
            Workload::EdgeMix => 500,
        }
    }
}

/// Which half of `edge_mix` an operation belongs to; every operation of
/// the other workloads is a `Write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Read,
    Write,
}

/// What one operation did. `end` is taken after the last future is
/// claimed and before the replies are checked, so latency is what a
/// client observes and checking is not part of it.
pub struct OpOutcome {
    pub end: Instant,
    pub calls: u32,
    /// Why the operation counts as failed: an error reply or a wrong one.
    pub problem: Option<String>,
    pub class: OpClass,
}

/// What a caller verified over its whole life, for the final self-check.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub verified_calls: u64,
    pub own_purchases: u64,
    pub hot_purchases: [u64; HOT_ACCOUNTS],
    /// Highest balance read per hot account (`edge_mix`).
    pub hot_seen: [f64; HOT_ACCOUNTS],
    /// Hot reads lower than an earlier read by the same caller.
    pub stale_reads: u64,
}

/// One closed-loop caller: the next operation starts when this returns.
pub trait Caller: Send {
    fn op(&mut self, seq: u64) -> OpOutcome;
    fn tally(&self) -> Tally;
}

/// What the final self-check learned beyond pass or fail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Finish {
    pub recovery_ms: f64,
    pub replayed_records: f64,
    pub stale_reads: f64,
}

// ---------------------------------------------------------------------
// Span wrappers (installed only on a traced rig).
// ---------------------------------------------------------------------

thread_local! {
    /// Calls in the operation this caller thread is flushing, so the
    /// capturing transport can label the frames it keeps.
    static OP_CALLS: Cell<u32> = const { Cell::new(0) };
}

/// Request/reply pairs of the traced workload, as opaque values.
#[derive(Default)]
struct Captured {
    pairs: Mutex<Vec<(Frame, Frame, u32)>>,
    /// Set once [`CAPTURED_FRAMES`] pairs are kept, so the rest of the
    /// window pays one relaxed load per request, not a lock and a clone.
    full: AtomicBool,
}

struct SpanTransport {
    inner: Arc<dyn Transport>,
    name: SpanName,
    capture: Option<Arc<Captured>>,
}

impl Transport for SpanTransport {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        let kept = self
            .capture
            .as_ref()
            .filter(|c| crate::trace::enabled() && !c.full.load(Ordering::Relaxed))
            .map(|c| (c, frame.clone()));
        let reply = {
            let _span = span(self.name, None);
            self.inner.request(frame)
        };
        if let (Some((capture, request)), Ok(reply)) = (kept, &reply) {
            let mut pairs = capture.pairs.lock().expect("capture lock");
            if pairs.len() < CAPTURED_FRAMES {
                pairs.push((request, reply.clone(), OP_CALLS.with(Cell::get)));
            } else {
                capture.full.store(true, Ordering::Relaxed);
            }
        }
        reply
    }
}

struct SpanHandler {
    inner: Arc<dyn RequestHandler>,
    name: SpanName,
    arrivals: AtomicU64,
}

impl SpanHandler {
    fn wrap(
        inner: Arc<dyn RequestHandler>,
        name: SpanName,
        traced: bool,
    ) -> Arc<dyn RequestHandler> {
        if !traced {
            return inner;
        }
        Arc::new(SpanHandler {
            inner,
            name,
            arrivals: AtomicU64::new(0),
        })
    }

    fn arrival(&self) -> Option<u64> {
        Some(self.arrivals.fetch_add(1, Ordering::Relaxed))
    }
}

impl RequestHandler for SpanHandler {
    fn handle(&self, frame: Frame) -> Frame {
        let _span = span(self.name, self.arrival());
        self.inner.handle(frame)
    }

    // The reactor dispatches through the borrowed path; forwarding it keeps
    // the traced topology on the same path as the untraced one.
    fn handle_ref(&self, frame: FrameRef<'_>) -> Frame {
        let _span = span(self.name, self.arrival());
        self.inner.handle_ref(frame)
    }
}

struct SpanNoop(Arc<dyn Noop>);

impl Noop for SpanNoop {
    fn noop(&self) -> Result<(), RemoteError> {
        let _span = span(SpanName::AppCall, None);
        self.0.noop()
    }
}

struct SpanTranslator(Arc<dyn Translator>);

impl Translator for SpanTranslator {
    fn translate(&self, word: Word) -> Result<Word, RemoteError> {
        let _span = span(SpanName::AppCall, None);
        self.0.translate(word)
    }

    fn target_language(&self) -> Result<String, RemoteError> {
        let _span = span(SpanName::AppCall, None);
        self.0.target_language()
    }
}

struct SpanCard(Arc<dyn CreditCard>);

impl CreditCard for SpanCard {
    fn get_credit_line(&self) -> Result<f64, RemoteError> {
        let _span = span(SpanName::AppCall, None);
        self.0.get_credit_line()
    }

    fn make_purchase(&self, amount: f64) -> Result<(), RemoteError> {
        let _span = span(SpanName::AppCall, None);
        self.0.make_purchase(amount)
    }

    fn get_balance(&self) -> Result<f64, RemoteError> {
        let _span = span(SpanName::AppCall, None);
        self.0.get_balance()
    }
}

// ---------------------------------------------------------------------
// Topology pieces.
// ---------------------------------------------------------------------

fn fail(what: &str, err: impl std::fmt::Display) -> String {
    format!("{what}: {err}")
}

fn origin_server(registry: &Registry) -> Arc<RmiServer> {
    let server = RmiServer::new();
    BatchExecutor::install(&server).register_metrics(registry);
    server.reply_cache().register_metrics(registry);
    server
}

fn serve(
    handler: Arc<dyn RequestHandler>,
    dispatch_workers: usize,
    registry: &Registry,
) -> Result<ReactorServer, String> {
    let reactor = ReactorServer::bind_with(
        "127.0.0.1:0",
        handler,
        ReactorConfig {
            dispatch_workers,
            ..ReactorConfig::default()
        },
    )
    .map_err(|e| fail("bind reactor", e))?;
    reactor.register_metrics(registry);
    Ok(reactor)
}

fn connect(
    reactor: &ReactorServer,
    registry: &Registry,
    wrapper: Option<(SpanName, Option<Arc<Captured>>)>,
) -> Result<Arc<dyn Transport>, String> {
    let mux = MuxClient::connect(reactor.local_addr()).map_err(|e| fail("connect mux", e))?;
    mux.register_metrics(registry);
    Ok(match wrapper {
        Some((name, capture)) => Arc::new(SpanTransport {
            inner: mux,
            name,
            capture,
        }) as Arc<dyn Transport>,
        None => mux,
    })
}

/// Opens `names` in a fresh bank and binds each account under its name,
/// so clients reach accounts by `lookup` alone and a recovered
/// incarnation exports them at the same ids by repeating this set-up.
fn bind_accounts(
    server: &Arc<RmiServer>,
    names: &[String],
    traced: bool,
) -> Result<Vec<Arc<Account>>, String> {
    let bank = Bank::new();
    names
        .iter()
        .map(|name| {
            let account = bank.open_account(name, CREDIT_LIMIT);
            let card: Arc<dyn CreditCard> = account.clone();
            let card = if traced {
                Arc::new(SpanCard(card)) as Arc<dyn CreditCard>
            } else {
                card
            };
            server
                .bind(name, CreditCardSkeleton::remote_arc(card))
                .map_err(|e| fail("bind account", e))?;
            Ok(account)
        })
        .collect()
}

fn balance(account: &Account) -> f64 {
    account.get_balance().unwrap_or(f64::NAN)
}

/// Account balances riding the journal's snapshots. Restoring goes
/// through the bank's own interface: a fresh account is charged up to
/// the captured balance.
struct AccountsState(Vec<Arc<Account>>);

impl DurableState for AccountsState {
    fn capture(&self) -> Value {
        Value::List(self.0.iter().map(|a| Value::F64(balance(a))).collect())
    }

    fn restore(&self, state: &Value) {
        let Value::List(balances) = state else { return };
        for (account, captured) in self.0.iter().zip(balances) {
            if let Value::F64(captured) = captured {
                let missing = captured - balance(account);
                if missing > 0.0 {
                    let _ = account.make_purchase(missing);
                }
            }
        }
    }
}

/// A journaled origin: the set-up every incarnation repeats, then the
/// attach that recovers whatever the directory holds.
struct DurableOrigin {
    server: Arc<RmiServer>,
    accounts: Vec<Arc<Account>>,
    replayed_executions: u64,
}

fn durable_origin(
    dir: &Path,
    names: &[String],
    traced: bool,
    registry: &Registry,
) -> Result<DurableOrigin, String> {
    let server = origin_server(registry);
    let accounts = bind_accounts(&server, names, traced)?;
    server.register_durable_state("accounts", Arc::new(AccountsState(accounts.clone())));
    let report = server
        .attach_durable(dir, DurableOptions::default())
        .map_err(|e| fail("attach durable journal", e))?;
    if let Some(journal) = server.journal() {
        journal.register_metrics(registry);
    }
    Ok(DurableOrigin {
        server,
        accounts,
        replayed_executions: report.replayed_executions,
    })
}

// ---------------------------------------------------------------------
// The rig.
// ---------------------------------------------------------------------

enum AppState {
    Noop(Arc<NoopServer>),
    Translator,
    /// Accounts by caller (`durable_keyed`), journal directory if any.
    Keyed {
        accounts: Vec<Arc<Account>>,
        names: Vec<String>,
        journal: Option<PathBuf>,
    },
    /// `hot` accounts then one `own` account per caller.
    Edge {
        accounts: Vec<Arc<Account>>,
    },
}

/// One built topology with its callers connected and looked up.
pub struct Rig {
    callers: Vec<Box<dyn Caller>>,
    // Field order is drop order: clients close before the servers they
    // talk to, the edge before the origin.
    clients: Vec<Arc<dyn Transport>>,
    reactors: Vec<ReactorServer>,
    origin: Arc<RmiServer>,
    state: AppState,
    client_metrics: Registry,
    edge_metrics: Registry,
    origin_metrics: Registry,
    first_tier_reactor: Registry,
    captured: Option<Arc<Captured>>,
}

/// Options of one build.
#[derive(Debug, Clone, Copy)]
pub struct Build<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Install the span wrappers.
    pub traced: bool,
    /// `durable_keyed` only: `false` builds the in-memory twin, whose
    /// handle time is what the journal's share is measured against.
    pub journal: bool,
    /// An empty directory on real disk for the journal.
    pub scratch: &'a Path,
}

impl Rig {
    /// Builds the topology, populates it, connects and looks up.
    ///
    /// # Errors
    /// Any bind, connect, attach or lookup failure, as text.
    pub fn build(build: Build<'_>) -> Result<Rig, String> {
        let Build {
            workload,
            seed,
            traced,
            ..
        } = build;
        let client_metrics = Registry::new();
        let edge_metrics = Registry::new();
        let origin_metrics = Registry::new();
        let first_tier_reactor = Registry::new();
        let captured = traced.then(|| Arc::new(Captured::default()));
        let client_wrapper = traced.then(|| (SpanName::ClientRequest, captured.clone()));
        let wrap_origin = |server: &Arc<RmiServer>| {
            SpanHandler::wrap(server.clone(), SpanName::OriginHandle, traced)
        };
        // The direct topologies: the clients' mux dials the origin's reactor.
        let serve_direct = |origin: &Arc<RmiServer>, dispatch_workers: usize| {
            let reactor = serve(wrap_origin(origin), dispatch_workers, &origin_metrics)?;
            reactor.register_metrics(&first_tier_reactor);
            let transport = connect(&reactor, &client_metrics, client_wrapper.clone())?;
            Ok::<_, String>((reactor, transport))
        };
        let lookup =
            |conn: &Connection, name: &str| conn.lookup(name).map_err(|e| fail("lookup", e));
        let mut reactors = Vec::new();
        let mut clients = Vec::new();
        let mut callers: Vec<Box<dyn Caller>> = Vec::new();

        let (origin, state) = match workload {
            Workload::RmiSingle => {
                let origin = origin_server(&origin_metrics);
                let noop = NoopServer::new();
                let service: Arc<dyn Noop> = noop.clone();
                let service = if traced {
                    Arc::new(SpanNoop(service)) as Arc<dyn Noop>
                } else {
                    service
                };
                origin
                    .bind("noop", NoopSkeleton::remote_arc(service))
                    .map_err(|e| fail("bind noop", e))?;
                let (reactor, transport) = serve_direct(&origin, 0)?;
                for caller in 0..workload.callers() {
                    let conn = Connection::new(transport.clone());
                    callers.push(Box::new(SingleCaller {
                        caller,
                        stub: NoopStub::new(lookup(&conn, "noop")?),
                        verified: 0,
                    }));
                }
                reactors.push(reactor);
                clients.push(transport);
                (origin, AppState::Noop(noop))
            }
            Workload::BatchWide => {
                let origin = origin_server(&origin_metrics);
                let service: Arc<dyn Translator> = DictionaryTranslator::english_to_french();
                let service = if traced {
                    Arc::new(SpanTranslator(service)) as Arc<dyn Translator>
                } else {
                    service
                };
                origin
                    .bind("translator", TranslatorSkeleton::remote_arc(service))
                    .map_err(|e| fail("bind translator", e))?;
                let (reactor, transport) = serve_direct(&origin, 0)?;
                // Expected answers come from a dictionary of the caller's
                // own, never from the one being served.
                let local = DictionaryTranslator::english_to_french();
                let cycle = gen::wide_cycle(seed, &local.known_words())
                    .into_iter()
                    .map(|texts| {
                        let words: Vec<Word> = texts.iter().map(|t| Word::new(t, "en")).collect();
                        let expected = words
                            .iter()
                            .map(|w| local.translate(w.clone()).ok())
                            .collect();
                        (words, expected)
                    })
                    .collect();
                let conn = Connection::new(transport.clone());
                callers.push(Box::new(WideCaller {
                    root: lookup(&conn, "translator")?,
                    conn,
                    cycle,
                    verified: 0,
                }));
                reactors.push(reactor);
                clients.push(transport);
                (origin, AppState::Translator)
            }
            Workload::DurableKeyed => {
                let names: Vec<String> = (0..workload.callers())
                    .map(|c| format!("acct-{c}"))
                    .collect();
                let (origin, accounts, journal) = if build.journal {
                    let durable = durable_origin(build.scratch, &names, traced, &origin_metrics)?;
                    (
                        durable.server,
                        durable.accounts,
                        Some(build.scratch.to_path_buf()),
                    )
                } else {
                    let origin = origin_server(&origin_metrics);
                    let accounts = bind_accounts(&origin, &names, traced)?;
                    (origin, accounts, None)
                };
                let (reactor, transport) = serve_direct(&origin, workload.callers())?;
                for (caller, name) in names.iter().enumerate() {
                    let conn = Connection::new_keyed(transport.clone());
                    callers.push(Box::new(KeyedCaller {
                        caller,
                        account: lookup(&conn, name)?,
                        conn,
                        tally: Tally::default(),
                    }));
                }
                reactors.push(reactor);
                clients.push(transport);
                let state = AppState::Keyed {
                    accounts,
                    names,
                    journal,
                };
                (origin, state)
            }
            Workload::EdgeMix => {
                let origin = origin_server(&origin_metrics);
                let names: Vec<String> = (0..HOT_ACCOUNTS)
                    .map(|i| format!("hot-{i}"))
                    .chain((0..workload.callers()).map(|c| format!("own-{c}")))
                    .collect();
                let accounts = bind_accounts(&origin, &names, traced)?;
                let origin_reactor = serve(wrap_origin(&origin), 0, &origin_metrics)?;
                let upstream = connect(
                    &origin_reactor,
                    &edge_metrics,
                    traced.then_some((SpanName::RelayUpstream, None)),
                )?;
                let relay = BatchRelay::new(
                    upstream.clone(),
                    RelayPolicy::builder()
                        .max_coalesced_calls(64)
                        .max_delay(Duration::from_micros(200))
                        .build(),
                );
                relay.register_metrics(&edge_metrics);
                let fetcher = BatchFetcher::new(
                    SpanHandler::wrap(relay, SpanName::RelayHandle, traced),
                    Arc::new(MethodRegistry::of(&[CreditCardSkeleton::INTERFACE_META])),
                    ReadCachePolicy {
                        ttl: Duration::from_millis(50),
                        capacity: 1024,
                    },
                );
                // The fetcher has no `register_metrics` of its own; its
                // stats handle is used for registration only, never read.
                fetcher.stats().register_metrics(&edge_metrics);
                let edge = serve(
                    SpanHandler::wrap(fetcher, SpanName::EdgeHandle, traced),
                    workload.callers(),
                    &edge_metrics,
                )?;
                edge.register_metrics(&first_tier_reactor);
                let transport = connect(&edge, &client_metrics, client_wrapper)?;
                for caller in 0..workload.callers() {
                    let conn = Connection::new(transport.clone());
                    let hot = (0..HOT_ACCOUNTS)
                        .map(|i| lookup(&conn, &names[i]))
                        .collect::<Result<Vec<_>, _>>()?;
                    callers.push(Box::new(EdgeCaller {
                        caller,
                        own: lookup(&conn, &names[HOT_ACCOUNTS + caller])?,
                        hot,
                        conn,
                        cycle: gen::edge_cycle(seed, caller),
                        tally: Tally::default(),
                    }));
                }
                reactors.push(edge);
                reactors.push(origin_reactor);
                clients.push(transport);
                clients.push(upstream);
                (origin, AppState::Edge { accounts })
            }
        };
        Ok(Rig {
            callers,
            clients,
            reactors,
            origin,
            state,
            client_metrics,
            edge_metrics,
            origin_metrics,
            first_tier_reactor,
            captured,
        })
    }

    /// Hands the callers to the driver's threads.
    pub fn take_callers(&mut self) -> Vec<Box<dyn Caller>> {
        std::mem::take(&mut self.callers)
    }

    /// Every counter and gauge of every tier by `tier.family{labels}`, and
    /// every histogram as `….count`, `….p50`, `….p99`. The two reactors of
    /// `edge_mix` keep their own tiers (`edge.`, `origin.`); on the direct
    /// topologies the only server is `origin.`.
    pub fn counts(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (tier, registry) in [
            ("client", &self.client_metrics),
            ("edge", &self.edge_metrics),
            ("origin", &self.origin_metrics),
        ] {
            for entry in registry.snapshot().entries {
                let key = format!("{tier}.{}", entry.key.render());
                match entry.value {
                    MetricValue::Counter(v) => {
                        out.insert(key, v as f64);
                    }
                    MetricValue::Gauge(v) => {
                        out.insert(key, v as f64);
                    }
                    MetricValue::Histogram(h) => {
                        out.insert(format!("{key}.count"), h.count as f64);
                        out.insert(format!("{key}.p50"), h.quantile(0.5) as f64);
                        out.insert(format!("{key}.p99"), h.quantile(0.99) as f64);
                    }
                }
            }
        }
        out
    }

    /// A cheap reader of the first tier's dispatch-queue depth, for a
    /// sampler thread to poll during the traced window.
    pub fn queue_depth_reader(&self) -> impl Fn() -> f64 + Send + 'static {
        let registry = self.first_tier_reactor.clone();
        move || registry.snapshot().gauge("reactor_worker_queue_depth") as f64
    }

    /// Times the codec directly on the frames the traced client kept:
    /// nanoseconds per remote call for request encode, borrowed request
    /// decode, reply encode and owned reply decode.
    pub fn codec_ns_per_call(&self) -> [f64; 4] {
        let Some(captured) = &self.captured else {
            return [0.0; 4];
        };
        let pairs = captured.pairs.lock().expect("capture lock");
        let calls: f64 = pairs.iter().map(|(_, _, calls)| f64::from(*calls)).sum();
        if calls == 0.0 {
            return [0.0; 4];
        }
        const ROUNDS: u32 = 200;
        let mut total = [Duration::ZERO; 4];
        let mut buf = Vec::new();
        for (request, reply, _) in pairs.iter() {
            let request_bytes = request.to_wire_bytes();
            let reply_bytes = reply.to_wire_bytes();
            let timed = |f: &mut dyn FnMut()| {
                let start = Instant::now();
                for _ in 0..ROUNDS {
                    f();
                }
                start.elapsed()
            };
            total[0] += timed(&mut || std::hint::black_box(request).encode_into(&mut buf));
            total[1] += timed(&mut || {
                std::hint::black_box(
                    FrameRef::from_wire_bytes(std::hint::black_box(&request_bytes)).is_ok(),
                );
            });
            total[2] += timed(&mut || std::hint::black_box(reply).encode_into(&mut buf));
            total[3] += timed(&mut || {
                std::hint::black_box(
                    Frame::from_wire_bytes(std::hint::black_box(&reply_bytes)).is_ok(),
                );
            });
        }
        total.map(|t| t.as_nanos() as f64 / f64::from(ROUNDS) / calls)
    }

    /// Runs the workload's final self-check and tears the topology down.
    /// `tallies` are the callers' in caller order.
    ///
    /// # Errors
    /// The first mismatch, as text.
    pub fn finish(self, tallies: &[Tally]) -> Result<Finish, String> {
        let Rig {
            clients,
            reactors,
            origin,
            state,
            ..
        } = self;
        let same = |what: &str, got: f64, want: u64| {
            if got == want as f64 {
                Ok(())
            } else {
                Err(format!(
                    "{what}: origin holds {got}, callers verified {want}"
                ))
            }
        };
        match &state {
            AppState::Noop(noop) => {
                let verified: u64 = tallies.iter().map(|t| t.verified_calls).sum();
                same("noop calls", noop.calls() as f64, verified)?;
            }
            AppState::Translator => {}
            AppState::Keyed { accounts, .. } => {
                for (caller, account) in accounts.iter().enumerate() {
                    same(
                        &format!("acct-{caller}"),
                        balance(account),
                        tallies[caller].own_purchases,
                    )?;
                }
            }
            AppState::Edge { accounts } => {
                for (i, account) in accounts.iter().enumerate() {
                    let want = match i.checked_sub(HOT_ACCOUNTS) {
                        None => tallies.iter().map(|t| t.hot_purchases[i]).sum(),
                        Some(caller) => tallies[caller].own_purchases,
                    };
                    same(&format!("account {i}"), balance(account), want)?;
                    if let Some(seen) = tallies
                        .iter()
                        .filter_map(|t| t.hot_seen.get(i))
                        .find(|&&seen| seen > balance(account))
                    {
                        return Err(format!("hot-{i}: a caller read {seen}, origin holds less"));
                    }
                }
            }
        }
        // Close every socket and stop every thread, then let go of the
        // origin so its journal is closed before anything reopens it.
        drop(clients);
        drop(reactors);
        drop(origin);
        let AppState::Keyed {
            names,
            journal: Some(dir),
            ..
        } = state
        else {
            return Ok(Finish {
                stale_reads: tallies.iter().map(|t| t.stale_reads as f64).sum(),
                ..Finish::default()
            });
        };
        // A fresh incarnation repeats the set-up and recovers the same
        // directory: snapshot restore plus replay of the journaled tail.
        let started = Instant::now();
        let recovered = durable_origin(&dir, &names, false, &Registry::new())?;
        let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
        for (caller, account) in recovered.accounts.iter().enumerate() {
            same(
                &format!("recovered acct-{caller}"),
                balance(account),
                tallies[caller].own_purchases,
            )?;
        }
        Ok(Finish {
            recovery_ms,
            replayed_records: recovered.replayed_executions as f64,
            stale_reads: 0.0,
        })
    }
}

// ---------------------------------------------------------------------
// Callers.
// ---------------------------------------------------------------------

struct SingleCaller {
    caller: usize,
    stub: NoopStub,
    verified: u64,
}

impl Caller for SingleCaller {
    fn op(&mut self, seq: u64) -> OpOutcome {
        let _op = span(SpanName::ClientOp, Some(client_req(self.caller, seq)));
        OP_CALLS.with(|c| c.set(1));
        let problem = self.stub.noop().err().map(|e| format!("noop: {e:?}"));
        let end = Instant::now();
        self.verified += u64::from(problem.is_none());
        OpOutcome {
            end,
            calls: 1,
            problem,
            class: OpClass::Write,
        }
    }

    fn tally(&self) -> Tally {
        Tally {
            verified_calls: self.verified,
            ..Tally::default()
        }
    }
}

/// Records with `record`, flushes, claims every future — each step under
/// its span — and returns the claimed results with the time the last
/// claim finished.
fn run_batch<T>(
    conn: &Connection,
    policy: impl Into<brmi_wire::invocation::PolicySpec>,
    calls: usize,
    record: impl FnOnce(&Batch) -> Vec<BatchFuture<T>>,
) -> (Vec<Result<T, RemoteError>>, Instant)
where
    T: brmi_wire::FromValue,
{
    OP_CALLS.with(|c| c.set(calls as u32));
    let (batch, futures) = {
        let _span = span(SpanName::CoreRecord, None);
        let batch = Batch::new(conn.clone(), policy);
        let futures = record(&batch);
        (batch, futures)
    };
    let flushed = {
        let _span = span(SpanName::CoreFlush, None);
        batch.flush()
    };
    let results = {
        let _span = span(SpanName::CoreClaim, None);
        match flushed {
            Ok(()) => futures.iter().map(BatchFuture::get).collect(),
            Err(err) => futures.iter().map(|_| Err(err.clone())).collect(),
        }
    };
    (results, Instant::now())
}

fn first_error<T>(what: &str, results: &[Result<T, RemoteError>]) -> Option<String> {
    results
        .iter()
        .find_map(|r| r.as_ref().err())
        .map(|e| format!("{what}: {e:?}"))
}

struct WideCaller {
    conn: Connection,
    root: RemoteRef,
    cycle: Vec<(Vec<Word>, Vec<Option<Word>>)>,
    verified: u64,
}

impl Caller for WideCaller {
    fn op(&mut self, seq: u64) -> OpOutcome {
        let _op = span(SpanName::ClientOp, Some(client_req(0, seq)));
        let (words, expected) = &self.cycle[seq as usize % self.cycle.len()];
        let (results, end) = run_batch(&self.conn, ContinuePolicy, words.len(), |batch| {
            let translator = BTranslator::new(batch, &self.root);
            words
                .iter()
                .map(|w| translator.translate(w.clone()))
                .collect()
        });
        let problem = results
            .iter()
            .zip(expected)
            .position(|(got, want)| match (got, want) {
                (Ok(got), Some(want)) => got != want,
                (Err(err), None) => err.exception() != "UnknownWordException",
                _ => true,
            })
            .map(|i| {
                format!(
                    "translate({:?}): got {:?}, want {:?}",
                    words[i].text, results[i], expected[i]
                )
            });
        self.verified += if problem.is_none() {
            words.len() as u64
        } else {
            0
        };
        OpOutcome {
            end,
            calls: words.len() as u32,
            problem,
            class: OpClass::Write,
        }
    }

    fn tally(&self) -> Tally {
        Tally {
            verified_calls: self.verified,
            ..Tally::default()
        }
    }
}

struct KeyedCaller {
    caller: usize,
    conn: Connection,
    account: RemoteRef,
    tally: Tally,
}

impl Caller for KeyedCaller {
    fn op(&mut self, seq: u64) -> OpOutcome {
        let _op = span(SpanName::ClientOp, Some(client_req(self.caller, seq)));
        let (results, end) = run_batch(&self.conn, AbortPolicy, DURABLE_CALLS, |batch| {
            let card = BCreditCard::new(batch, &self.account);
            (0..DURABLE_CALLS)
                .map(|_| card.make_purchase(1.0))
                .collect()
        });
        let purchased = results.iter().filter(|r| r.is_ok()).count() as u64;
        self.tally.own_purchases += purchased;
        self.tally.verified_calls += purchased;
        OpOutcome {
            end,
            calls: DURABLE_CALLS as u32,
            problem: first_error("make_purchase", &results),
            class: OpClass::Write,
        }
    }

    fn tally(&self) -> Tally {
        self.tally.clone()
    }
}

struct EdgeCaller {
    caller: usize,
    conn: Connection,
    hot: Vec<RemoteRef>,
    own: RemoteRef,
    cycle: Vec<EdgeOp>,
    tally: Tally,
}

impl Caller for EdgeCaller {
    fn op(&mut self, seq: u64) -> OpOutcome {
        let _op = span(SpanName::ClientOp, Some(client_req(self.caller, seq)));
        match &self.cycle[seq as usize % self.cycle.len()] {
            EdgeOp::Read { hot } => {
                let calls = hot.len() + 1;
                let (results, end) = run_batch(&self.conn, AbortPolicy, calls, |batch| {
                    hot.iter()
                        .map(|&i| &self.hot[i])
                        .chain([&self.own])
                        .map(|account| BCreditCard::new(batch, account).get_balance())
                        .collect()
                });
                let mut problem = first_error("get_balance", &results);
                // Balances only grow, so a read below an earlier one came
                // from a stale cache entry. The fetcher promises a TTL, not
                // monotonic reads (a probe planned after a write's epoch
                // bump can still overtake the write), so this is counted,
                // not failed; `finish` checks no read ran ahead of the origin.
                for (&i, read) in hot.iter().zip(&results) {
                    if let Ok(balance) = read {
                        if *balance >= self.tally.hot_seen[i] {
                            self.tally.hot_seen[i] = *balance;
                        } else {
                            self.tally.stale_reads += 1;
                        }
                    }
                }
                // Read-your-writes through the cache: only this caller
                // writes its own account, so the count is exact.
                if let Some(Ok(own)) = results.last() {
                    if *own != self.tally.own_purchases as f64 {
                        problem.get_or_insert(format!(
                            "own-{} read {own} after {} purchases",
                            self.caller, self.tally.own_purchases
                        ));
                    }
                }
                self.tally.verified_calls += if problem.is_none() { calls as u64 } else { 0 };
                OpOutcome {
                    end,
                    calls: calls as u32,
                    problem,
                    class: OpClass::Read,
                }
            }
            EdgeOp::Write { hot } => {
                let calls = WRITE_OWN + 1;
                let (results, end) = run_batch(&self.conn, AbortPolicy, calls, |batch| {
                    let own = BCreditCard::new(batch, &self.own);
                    let mut futures: Vec<_> =
                        (0..WRITE_OWN).map(|_| own.make_purchase(1.0)).collect();
                    futures.push(BCreditCard::new(batch, &self.hot[*hot]).make_purchase(1.0));
                    futures
                });
                let own_ok = results[..WRITE_OWN].iter().filter(|r| r.is_ok()).count() as u64;
                let hot_ok = u64::from(results[WRITE_OWN].is_ok());
                self.tally.own_purchases += own_ok;
                self.tally.hot_purchases[*hot] += hot_ok;
                self.tally.verified_calls += own_ok + hot_ok;
                OpOutcome {
                    end,
                    calls: calls as u32,
                    problem: first_error("make_purchase", &results),
                    class: OpClass::Write,
                }
            }
        }
    }

    fn tally(&self) -> Tally {
        self.tally.clone()
    }
}

// ---------------------------------------------------------------------
// Direct timings of single layers.
// ---------------------------------------------------------------------

/// Nanoseconds per `ObjectTable::get` over a table the size of the
/// largest one a workload exports.
pub fn table_lookup_ns() -> f64 {
    let table = ObjectTable::new();
    let ids: Vec<_> = (0..32)
        .map(|_| table.export(NoopSkeleton::remote_arc(NoopServer::new())))
        .collect();
    const ROUNDS: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for id in &ids {
            std::hint::black_box(table.get(std::hint::black_box(*id)).is_some());
        }
    }
    start.elapsed().as_nanos() as f64 / f64::from(ROUNDS) / ids.len() as f64
}

/// Mean nanoseconds per `Log::append` and microseconds per `Log::commit`
/// (one staged record, one fsync) for records of `payload_bytes`, in an
/// empty directory next to the workload's journal.
///
/// # Errors
/// Any log failure, as text.
pub fn log_append_commit(dir: &Path, payload_bytes: usize) -> Result<(f64, f64), String> {
    let (log, _) = Log::open(dir, LogConfig::default()).map_err(|e| fail("open probe log", e))?;
    let payload = vec![0xA5u8; payload_bytes.max(1)];
    const ROUNDS: u32 = 200;
    let (mut append, mut commit) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        log.append(&payload).map_err(|e| fail("probe append", e))?;
        let staged = Instant::now();
        log.commit().map_err(|e| fail("probe commit", e))?;
        append += staged - start;
        commit += staged.elapsed();
    }
    Ok((
        append.as_nanos() as f64 / f64::from(ROUNDS),
        commit.as_nanos() as f64 / 1e3 / f64::from(ROUNDS),
    ))
}
