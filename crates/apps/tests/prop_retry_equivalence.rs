//! The retry layer's semantic bar, as a property: for arbitrary concurrent
//! programs over the bank and list services, execution through keyed
//! connections over *lossy* links — seeded request and reply drops at the
//! client → relay tier AND the relay → origin tier, with transparent
//! reconnect-and-retry at both — is observably identical to the same
//! harness with zero drops: per-call results, exception cursors, final
//! server state, and the origin executor's counters (so not a single call
//! ran twice, no matter how many times its segment was re-sent).
//!
//! This is the paper's exactly-once *visible* contract end to end: clients
//! stamp idempotency keys, retry tiers re-send on failure, and the origin
//! reply cache absorbs every duplicate.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use brmi::executor::ExecutorStats;
use brmi::BatchExecutor;
use brmi_apps::bank::{brmi_purchase_session, Bank, CreditManagerSkeleton, SessionReport};
use brmi_apps::list::{brmi_nth_value, ListNode, RemoteListSkeleton};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::fault::{FaultPlan, FaultPoint, FaultyTransport};
use brmi_transport::relay::{BatchRelay, RelayPolicy};
use brmi_transport::retry::{RetryPolicy, RetryTransport};
use brmi_transport::sim::SimTransport;
use brmi_transport::Transport;
use proptest::prelude::*;

const ACCOUNT_LIMIT: f64 = 100.0;

/// Generous budget: with independent per-request and per-reply drop odds of
/// at most 25%, the chance of exhausting 32 immediate attempts is ~5e-12 —
/// a keyed round trip effectively always lands.
fn retry_policy() -> RetryPolicy {
    RetryPolicy::immediate(32)
}

fn relay_policy(budget: usize) -> RelayPolicy {
    RelayPolicy::builder()
        .max_coalesced_calls(budget)
        .max_delay(Duration::from_millis(1))
        .build()
}

/// A link that loses requests *and* replies, each with its own seeded,
/// reproducible drop sequence. `drop_per_mille == 0` is a perfect link, so
/// the fault-free reference run uses the identical stack.
fn lossy_link(inner: SimTransport, seed: u64, drop_per_mille: u16) -> Arc<dyn Transport> {
    let requests = FaultyTransport::with_fault_point(
        inner,
        FaultPlan::Seeded {
            seed,
            drop_per_mille,
        },
        FaultPoint::Request,
    );
    FaultyTransport::with_fault_point(
        requests as Arc<dyn Transport>,
        FaultPlan::Seeded {
            seed: seed.rotate_left(17) ^ 0xBAD5_EED0_F00D_CAFE,
            drop_per_mille,
        },
        FaultPoint::Reply,
    ) as Arc<dyn Transport>
}

/// What one harness run observes: client-visible results plus the origin's
/// execution counters (the proof that nothing ran twice).
struct RunOutcome<T> {
    observations: Vec<T>,
    balances: Vec<Option<f64>>,
    executor: ExecutorStats,
    cache_executions: u64,
    cache_replays: u64,
}

/// One purchase amount: valid spends, an invalid (negative) amount, and an
/// overdraft-forcing amount, so sessions exercise the policy's continue
/// and break behaviour.
fn arb_amount() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (1i32..60).prop_map(f64::from),
        1 => Just(-4.0),
        1 => Just(ACCOUNT_LIMIT + 400.0),
    ]
}

/// One program: a sequence of purchase sessions (each one batch chain).
fn arb_bank_program() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(arb_amount(), 0..5), 1..4)
}

/// Keyed concurrent execution over lossy retry-wrapped links: one client
/// thread per program, each with its own key source and its own seeded
/// drop schedule; the relay's upstream is equally lossy and retry-wrapped.
fn run_bank_keyed(
    programs: &[Vec<Vec<f64>>],
    budget: usize,
    seed: u64,
    drop_per_mille: u16,
) -> RunOutcome<Vec<SessionReport>> {
    let origin = RmiServer::new();
    let executor = BatchExecutor::install(&origin);
    let bank = Bank::new();
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");
    for i in 0..programs.len() {
        bank.open_account(&format!("cust{i}"), ACCOUNT_LIMIT);
    }
    let relay = BatchRelay::new(
        RetryTransport::over(
            lossy_link(
                SimTransport::in_process(origin.clone()),
                seed ^ 0x5EED_0F0A_11AC_E5ED,
                drop_per_mille,
            ),
            retry_policy(),
        ),
        relay_policy(budget),
    );

    let gate = Arc::new(Barrier::new(programs.len()));
    let handles: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, program)| {
            let relay = Arc::clone(&relay);
            let gate = Arc::clone(&gate);
            let program = program.clone();
            std::thread::spawn(move || {
                let link = lossy_link(
                    SimTransport::in_process(relay),
                    seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                    drop_per_mille,
                );
                let conn = Connection::new_keyed(RetryTransport::over(link, retry_policy()));
                let root = conn.lookup("bank").expect("keyed lookup survives drops");
                let customer = format!("cust{i}");
                gate.wait();
                program
                    .iter()
                    .map(|session| {
                        brmi_purchase_session(&conn, &root, &customer, session)
                            .expect("keyed session survives drops")
                    })
                    .collect::<Vec<SessionReport>>()
            })
        })
        .collect();
    let observations = handles
        .into_iter()
        .map(|handle| handle.join().expect("client thread panicked"))
        .collect();
    let balances = (0..programs.len())
        .map(|i| bank.balance_of(&format!("cust{i}")))
        .collect();
    relay.shutdown();
    RunOutcome {
        observations,
        balances,
        executor: executor.stats(),
        cache_executions: origin.reply_cache().executions(),
        cache_replays: origin.reply_cache().replays(),
    }
}

/// One list program: the chain node values plus the traversal depths to
/// query (some past the tail, so `EndOfListException` paths are covered).
fn arb_list_program() -> impl Strategy<Value = (Vec<i32>, Vec<usize>)> {
    (
        proptest::collection::vec(-50i32..50, 1..5),
        proptest::collection::vec(0usize..7, 1..5),
    )
}

type ListObservation = Vec<Result<i32, String>>;

fn run_list_keyed(
    programs: &[(Vec<i32>, Vec<usize>)],
    budget: usize,
    seed: u64,
    drop_per_mille: u16,
) -> RunOutcome<ListObservation> {
    let origin = RmiServer::new();
    let executor = BatchExecutor::install(&origin);
    for (i, (values, _)) in programs.iter().enumerate() {
        origin
            .bind(
                &format!("list{i}"),
                RemoteListSkeleton::remote_arc(ListNode::chain(values)),
            )
            .expect("fresh bind");
    }
    let relay = BatchRelay::new(
        RetryTransport::over(
            lossy_link(
                SimTransport::in_process(origin.clone()),
                seed ^ 0x5EED_0F0A_11AC_E5ED,
                drop_per_mille,
            ),
            retry_policy(),
        ),
        relay_policy(budget),
    );

    let gate = Arc::new(Barrier::new(programs.len()));
    let handles: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, (_, depths))| {
            let relay = Arc::clone(&relay);
            let gate = Arc::clone(&gate);
            let depths = depths.clone();
            std::thread::spawn(move || {
                let link = lossy_link(
                    SimTransport::in_process(relay),
                    seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                    drop_per_mille,
                );
                let conn = Connection::new_keyed(RetryTransport::over(link, retry_policy()));
                let root = conn
                    .lookup(&format!("list{i}"))
                    .expect("keyed lookup survives drops");
                gate.wait();
                depths
                    .iter()
                    .map(|&n| brmi_nth_value(&conn, &root, n).map_err(|e| e.exception().to_owned()))
                    .collect::<ListObservation>()
            })
        })
        .collect();
    let observations = handles
        .into_iter()
        .map(|handle| handle.join().expect("client thread panicked"))
        .collect();
    relay.shutdown();
    RunOutcome {
        observations,
        balances: Vec::new(),
        executor: executor.stats(),
        cache_executions: origin.reply_cache().executions(),
        cache_replays: origin.reply_cache().replays(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bank service under lossy links: session reports, final balances,
    /// and every origin-side execution counter agree with the fault-free
    /// run of the identical harness — duplicates were absorbed by the
    /// reply cache, never re-executed.
    #[test]
    fn bank_programs_survive_drops_with_exactly_once_execution(
        programs in proptest::collection::vec(arb_bank_program(), 1..4),
        budget in 1usize..24,
        seed in any::<u64>(),
        drop_per_mille in 0u16..251,
    ) {
        let clean = run_bank_keyed(&programs, budget, seed, 0);
        let lossy = run_bank_keyed(&programs, budget, seed, drop_per_mille);
        prop_assert_eq!(&lossy.observations, &clean.observations);
        prop_assert_eq!(&lossy.balances, &clean.balances);
        prop_assert_eq!(lossy.executor, clean.executor,
            "executor counters must match: no batch or call may run twice");
        prop_assert_eq!(lossy.cache_executions, clean.cache_executions,
            "origin must execute each keyed frame exactly once");
        prop_assert_eq!(clean.cache_replays, 0, "a perfect link never replays");
    }

    /// List service under lossy links: traversal values and
    /// `EndOfListException` cursors agree with the fault-free run, with
    /// identical origin-side execution counters.
    #[test]
    fn list_programs_survive_drops_with_exactly_once_execution(
        programs in proptest::collection::vec(arb_list_program(), 1..4),
        budget in 1usize..16,
        seed in any::<u64>(),
        drop_per_mille in 0u16..251,
    ) {
        let clean = run_list_keyed(&programs, budget, seed, 0);
        let lossy = run_list_keyed(&programs, budget, seed, drop_per_mille);
        prop_assert_eq!(&lossy.observations, &clean.observations);
        prop_assert_eq!(lossy.executor, clean.executor,
            "executor counters must match: no batch or call may run twice");
        prop_assert_eq!(lossy.cache_executions, clean.cache_executions,
            "origin must execute each keyed frame exactly once");
    }
}

/// Deterministic guard that the property can't pass vacuously: with every
/// second reply lost on the client link (the session is lookup + one
/// flush, so the flush reply is always lost), retries *must* engage and
/// the origin *must* replay cached answers — and the account is charged
/// exactly once per purchase.
#[test]
fn reply_loss_forces_replays_not_reexecution() {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let bank = Bank::new();
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");
    bank.open_account("solo", ACCOUNT_LIMIT);
    let relay = BatchRelay::new(
        Arc::new(SimTransport::in_process(origin.clone())),
        relay_policy(8),
    );

    let faulty = FaultyTransport::with_fault_point(
        SimTransport::in_process(relay.clone()),
        FaultPlan::EveryNth(2),
        FaultPoint::Reply,
    );
    let retried = RetryTransport::over(faulty.clone() as Arc<dyn Transport>, retry_policy());
    let conn = Connection::new_keyed(retried.clone());
    let root = conn.lookup("bank").expect("lookup");

    let report = brmi_purchase_session(&conn, &root, "solo", &[10.0, 20.0, 30.0])
        .expect("session survives reply loss");
    assert_eq!(report.purchase_errors, vec![None, None, None]);
    assert_eq!(report.credit_line, Ok(ACCOUNT_LIMIT - 60.0));
    assert_eq!(
        bank.balance_of("solo"),
        Some(60.0),
        "each purchase charged exactly once"
    );
    assert!(faulty.injected() > 0, "faults must actually strike");
    assert!(retried.retries() > 0, "the client must actually re-send");
    assert_eq!(
        origin.reply_cache().replays(),
        faulty.injected(),
        "every lost reply is answered again from the cache, nothing re-runs"
    );
    relay.shutdown();
}
