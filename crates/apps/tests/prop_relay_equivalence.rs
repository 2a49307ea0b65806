//! The relay's semantic bar, as a property: for arbitrary programs over
//! the bank and list services, execution through a client → edge → origin
//! relay is observably identical to direct execution — per-call results,
//! exception (abort) cursors, and final server state — for *any* relay
//! coalescing policy.
//!
//! Programs run on concurrent client threads behind the relay (so batches
//! really coalesce across connections), but each program owns disjoint
//! server state, so its observations must match the sequential direct run
//! regardless of how the edge groups the traffic.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use brmi::BatchExecutor;
use brmi_apps::bank::{brmi_purchase_session, Bank, CreditManagerSkeleton, SessionReport};
use brmi_apps::list::{brmi_nth_value, ListNode, RemoteListSkeleton};
use brmi_apps::testkit::AppRig;
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::relay::{BatchRelay, RelayPolicy};
use brmi_transport::sim::SimTransport;
use proptest::prelude::*;

const ACCOUNT_LIMIT: f64 = 100.0;

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

fn relay_policy(budget: usize) -> RelayPolicy {
    RelayPolicy::builder()
        .max_coalesced_calls(budget)
        .max_delay(Duration::from_millis(1))
        .build()
}

/// Direct reference execution: programs run sequentially against a plain
/// in-process rig.
fn run_bank_direct(programs: &[Vec<Vec<f64>>]) -> (Vec<Vec<SessionReport>>, Vec<Option<f64>>) {
    let bank = Bank::new();
    let rig = AppRig::serve("bank", CreditManagerSkeleton::remote_arc(bank.clone()));
    let reports = programs
        .iter()
        .enumerate()
        .map(|(i, program)| {
            let customer = format!("cust{i}");
            bank.open_account(&customer, ACCOUNT_LIMIT);
            program
                .iter()
                .map(|session| {
                    brmi_purchase_session(&rig.conn, &rig.root, &customer, session)
                        .expect("in-process session cannot fail")
                })
                .collect()
        })
        .collect();
    let balances = (0..programs.len())
        .map(|i| bank.balance_of(&format!("cust{i}")))
        .collect();
    (reports, balances)
}

/// Relayed execution: one concurrent client thread per program behind a
/// [`BatchRelay`] with the given coalescing budget.
fn run_bank_relayed(
    programs: &[Vec<Vec<f64>>],
    budget: usize,
) -> (Vec<Vec<SessionReport>>, Vec<Option<f64>>) {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let bank = Bank::new();
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");
    for i in 0..programs.len() {
        bank.open_account(&format!("cust{i}"), ACCOUNT_LIMIT);
    }
    let upstream = Arc::new(SimTransport::in_process(origin));
    let relay = BatchRelay::new(upstream, relay_policy(budget));
    let client_transport = Arc::new(SimTransport::in_process(relay.clone()));

    let gate = Arc::new(Barrier::new(programs.len()));
    let handles: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, program)| {
            let transport = Arc::clone(&client_transport);
            let gate = Arc::clone(&gate);
            let program = program.clone();
            std::thread::spawn(move || {
                let conn = Connection::new(transport);
                let root = conn.lookup("bank").expect("lookup through relay");
                let customer = format!("cust{i}");
                gate.wait();
                program
                    .iter()
                    .map(|session| {
                        brmi_purchase_session(&conn, &root, &customer, session)
                            .expect("relayed session cannot fail")
                    })
                    .collect::<Vec<SessionReport>>()
            })
        })
        .collect();
    let reports = handles
        .into_iter()
        .map(|handle| handle.join().expect("relayed client panicked"))
        .collect();
    let balances = (0..programs.len())
        .map(|i| bank.balance_of(&format!("cust{i}")))
        .collect();
    relay.shutdown();
    (reports, balances)
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

fn observe_list(
    conn: &Connection,
    root: &brmi_rmi::RemoteRef,
    depths: &[usize],
) -> ListObservation {
    depths
        .iter()
        .map(|&n| brmi_nth_value(conn, root, n).map_err(|err| err.exception().to_owned()))
        .collect()
}

fn run_list_direct(programs: &[(Vec<i32>, Vec<usize>)]) -> Vec<ListObservation> {
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    for (i, (values, _)) in programs.iter().enumerate() {
        server
            .bind(
                &format!("list{i}"),
                RemoteListSkeleton::remote_arc(ListNode::chain(values)),
            )
            .expect("fresh bind");
    }
    let conn = Connection::new(Arc::new(SimTransport::in_process(server)));
    programs
        .iter()
        .enumerate()
        .map(|(i, (_, depths))| {
            let root = conn.lookup(&format!("list{i}")).expect("lookup");
            observe_list(&conn, &root, depths)
        })
        .collect()
}

fn run_list_relayed(programs: &[(Vec<i32>, Vec<usize>)], budget: usize) -> Vec<ListObservation> {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    for (i, (values, _)) in programs.iter().enumerate() {
        origin
            .bind(
                &format!("list{i}"),
                RemoteListSkeleton::remote_arc(ListNode::chain(values)),
            )
            .expect("fresh bind");
    }
    let upstream = Arc::new(SimTransport::in_process(origin));
    let relay = BatchRelay::new(upstream, relay_policy(budget));
    let client_transport = Arc::new(SimTransport::in_process(relay.clone()));

    let gate = Arc::new(Barrier::new(programs.len()));
    let handles: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, (_, depths))| {
            let transport = Arc::clone(&client_transport);
            let gate = Arc::clone(&gate);
            let depths = depths.clone();
            std::thread::spawn(move || {
                let conn = Connection::new(transport);
                let root = conn.lookup(&format!("list{i}")).expect("lookup");
                gate.wait();
                observe_list(&conn, &root, &depths)
            })
        })
        .collect();
    let observations = handles
        .into_iter()
        .map(|handle| handle.join().expect("relayed client panicked"))
        .collect();
    relay.shutdown();
    observations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bank service: per-session reports (purchase outcomes + the credit
    /// line, i.e. where the abort cursor landed) and final balances agree
    /// between direct and relayed execution for any coalescing budget.
    #[test]
    fn bank_programs_direct_equals_relayed(
        programs in proptest::collection::vec(arb_bank_program(), 1..4),
        budget in 1usize..24,
    ) {
        let (direct_reports, direct_balances) = run_bank_direct(&programs);
        let (relayed_reports, relayed_balances) = run_bank_relayed(&programs, budget);
        prop_assert_eq!(relayed_reports, direct_reports);
        prop_assert_eq!(relayed_balances, direct_balances);
    }

    /// List service: traversal values and `EndOfListException` cursors
    /// agree between direct and relayed execution.
    #[test]
    fn list_programs_direct_equals_relayed(
        programs in proptest::collection::vec(arb_list_program(), 1..4),
        budget in 1usize..16,
    ) {
        let direct = run_list_direct(&programs);
        let relayed = run_list_relayed(&programs, budget);
        prop_assert_eq!(relayed, direct);
    }
}
