//! The fetcher's semantic bar, as a property: for arbitrary programs of
//! cached balance reads interleaved with invalidating purchases, execution
//! through a [`BatchFetcher`] is observably identical to direct execution
//! — per-op outcomes and final server state — for any concurrent client
//! mix, and a faulty fetcher→origin link never lets the cache serve a
//! value the origin does not hold (a dropped write must not leave a stale
//! entry behind, and a dropped read probe must not poison later hits).

use std::sync::{Arc, Barrier};
use std::time::Duration;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor};
use brmi_apps::bank::{
    BCreditCard, Bank, CreditCardSkeleton, CreditManagerSkeleton, CreditManagerStub,
};
use brmi_apps::testkit::AppRig;
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::fault::{FaultPlan, FaultyTransport};
use brmi_transport::fetcher::BatchFetcher;
use brmi_transport::relay::ReadCachePolicy;
use brmi_transport::sim::SimTransport;
use brmi_transport::{RequestHandler, Transport};
use brmi_wire::invocation::ErrorEnvelope;
use brmi_wire::protocol::Frame;
use brmi_wire::{MethodRegistry, RemoteError};
use proptest::prelude::*;

const ACCOUNT_LIMIT: f64 = 100.0;

/// One client step: an invalidating write or a cacheable read.
#[derive(Debug, Clone, Copy)]
enum Op {
    Purchase(f64),
    Check,
}

/// What one step observed: `Ok(None)` a successful purchase, `Ok(Some(v))`
/// a balance read, `Err(exception)` any failure.
type Observation = Result<Option<f64>, String>;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1i32..40).prop_map(|v| Op::Purchase(f64::from(v))),
        1 => Just(Op::Purchase(-4.0)),
        1 => Just(Op::Purchase(ACCOUNT_LIMIT + 400.0)),
        4 => Just(Op::Check),
    ]
}

fn arb_program() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..12)
}

fn bank_registry() -> Arc<MethodRegistry> {
    Arc::new(MethodRegistry::of(&[
        CreditCardSkeleton::INTERFACE_META,
        CreditManagerSkeleton::INTERFACE_META,
    ]))
}

fn generous_cache() -> ReadCachePolicy {
    ReadCachePolicy {
        ttl: Duration::from_secs(300),
        capacity: 256,
    }
}

fn account_ref(root: &RemoteRef, customer: &str) -> RemoteRef {
    CreditManagerStub::new(root.clone())
        .find_credit_account(customer.to_owned())
        .expect("account exists")
        .remote_ref()
        .clone()
}

/// Runs one program sequentially against its account.
fn run_ops(conn: &Connection, account: &RemoteRef, ops: &[Op]) -> Vec<Observation> {
    ops.iter()
        .map(|op| match op {
            Op::Purchase(amount) => {
                let batch = Batch::new(conn.clone(), AbortPolicy);
                let purchase = BCreditCard::new(&batch, account).make_purchase(*amount);
                match batch.flush() {
                    Ok(()) => match purchase.get() {
                        Ok(()) => Ok(None),
                        Err(err) => Err(err.exception().to_owned()),
                    },
                    Err(err) => Err(err.exception().to_owned()),
                }
            }
            Op::Check => {
                let batch = Batch::new(conn.clone(), AbortPolicy);
                let balance = BCreditCard::new(&batch, account).get_balance();
                match batch.flush() {
                    Ok(()) => match balance.get() {
                        Ok(value) => Ok(Some(value)),
                        Err(err) => Err(err.exception().to_owned()),
                    },
                    Err(err) => Err(err.exception().to_owned()),
                }
            }
        })
        .collect()
}

/// Direct reference execution: sequential, no fetcher.
fn run_direct(programs: &[Vec<Op>]) -> (Vec<Vec<Observation>>, Vec<Option<f64>>) {
    let bank = Bank::new();
    let rig = AppRig::serve("bank", CreditManagerSkeleton::remote_arc(bank.clone()));
    let observations = programs
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let customer = format!("cust{i}");
            bank.open_account(&customer, ACCOUNT_LIMIT);
            let account = account_ref(&rig.root, &customer);
            run_ops(&rig.conn, &account, ops)
        })
        .collect();
    let balances = (0..programs.len())
        .map(|i| bank.balance_of(&format!("cust{i}")))
        .collect();
    (observations, balances)
}

/// Fetched execution: one concurrent client thread per program, all
/// sharing one [`BatchFetcher`] over the origin.
fn run_fetched(programs: &[Vec<Op>]) -> (Vec<Vec<Observation>>, Vec<Option<f64>>) {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let bank = Bank::new();
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");
    for i in 0..programs.len() {
        bank.open_account(&format!("cust{i}"), ACCOUNT_LIMIT);
    }
    let fetcher = BatchFetcher::new(
        origin as Arc<dyn RequestHandler>,
        bank_registry(),
        generous_cache(),
    );
    let client_transport = Arc::new(SimTransport::in_process(fetcher as Arc<dyn RequestHandler>));

    let gate = Arc::new(Barrier::new(programs.len()));
    let handles: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let transport = Arc::clone(&client_transport);
            let gate = Arc::clone(&gate);
            let ops = ops.clone();
            std::thread::spawn(move || {
                let conn = Connection::new(transport);
                let root = conn.lookup("bank").expect("lookup through fetcher");
                let customer = format!("cust{i}");
                let account = account_ref(&root, &customer);
                gate.wait();
                run_ops(&conn, &account, &ops)
            })
        })
        .collect();
    let observations = handles
        .into_iter()
        .map(|handle| handle.join().expect("fetched client panicked"))
        .collect();
    let balances = (0..programs.len())
        .map(|i| bank.balance_of(&format!("cust{i}")))
        .collect();
    (observations, balances)
}

/// Adapts a [`Transport`] back into a [`RequestHandler`] so fault
/// injection can sit *between* the fetcher and the origin.
struct HandlerOverTransport<T>(T);

impl<T: Transport> RequestHandler for HandlerOverTransport<T> {
    fn handle(&self, frame: Frame) -> Frame {
        match self.0.request(frame) {
            Ok(reply) => reply,
            Err(err) => Frame::Error(ErrorEnvelope::from(&err)),
        }
    }
}

/// Faulty-link execution with a running model: every successful write is
/// applied to the model, every successful read must equal it, and the
/// origin's final balance must too — so a dropped write can never leave a
/// servable stale entry, whatever the cache did in between.
fn run_faulty_against_model(ops: &[Op], every_nth: u64) {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let bank = Bank::new();
    bank.open_account("solo", f64::MAX / 4.0); // overdrafts out of the picture
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");

    let faulty = FaultyTransport::new(
        SimTransport::in_process(origin as Arc<dyn RequestHandler>),
        FaultPlan::EveryNth(every_nth),
    );
    let fetcher = BatchFetcher::new(
        Arc::new(HandlerOverTransport(faulty)) as Arc<dyn RequestHandler>,
        bank_registry(),
        generous_cache(),
    );
    let conn = Connection::new(Arc::new(SimTransport::in_process(
        fetcher as Arc<dyn RequestHandler>,
    )));

    // Resolution itself crosses the faulty link; with `EveryNth(n >= 2)`
    // one retry always lands on a good slot.
    let retry = |action: &dyn Fn() -> Result<RemoteRef, RemoteError>| {
        action().or_else(|_| action()).expect("second try clears")
    };
    let root = retry(&|| conn.lookup("bank"));
    let account = retry(&|| {
        CreditManagerStub::new(root.clone())
            .find_credit_account("solo".into())
            .map(|stub| stub.remote_ref().clone())
    });

    let mut model = 0.0f64;
    for (step, observation) in run_ops(&conn, &account, ops).into_iter().enumerate() {
        match (ops[step], observation) {
            (Op::Purchase(amount), Ok(None)) => model += amount,
            (Op::Purchase(_), Ok(Some(value))) => {
                panic!("step {step}: purchase returned a value {value}")
            }
            // A failed write was dropped before the origin: no state
            // change anywhere, by construction of the fault plan.
            (Op::Purchase(_), Err(_)) => {}
            (Op::Check, Ok(Some(value))) => {
                assert_eq!(
                    value, model,
                    "step {step}: read {value} but origin holds {model}"
                );
            }
            (Op::Check, Ok(None)) => panic!("step {step}: read returned no value"),
            // A dropped read tells us nothing; the next one must be right.
            (Op::Check, Err(_)) => {}
        }
    }
    assert_eq!(bank.balance_of("solo"), Some(model));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Concurrent cached reads interleaved with invalidating writes: every
    /// per-op observation and final balance agrees with sequential direct
    /// execution (each program owns its account, so the comparison is
    /// exact).
    #[test]
    fn bank_programs_direct_equals_fetched(
        programs in proptest::collection::vec(arb_program(), 1..4),
    ) {
        let (direct_obs, direct_balances) = run_direct(&programs);
        let (fetched_obs, fetched_balances) = run_fetched(&programs);
        prop_assert_eq!(fetched_obs, direct_obs);
        prop_assert_eq!(fetched_balances, direct_balances);
    }

    /// Under a lossy fetcher→origin link, successful reads always report
    /// the origin's true balance: dropped writes invalidate without
    /// executing, dropped probes surface as errors, and neither leaves a
    /// stale cache entry a later hit could serve.
    #[test]
    fn lossy_link_never_serves_a_value_the_origin_does_not_hold(
        ops in proptest::collection::vec(arb_op(), 1..16),
        every_nth in 2u64..6,
    ) {
        run_faulty_against_model(&ops, every_nth);
    }
}
