//! End-to-end scenarios for the read-caching tier: the bank and list
//! services running through a [`BatchFetcher`], asserting that cached
//! reads are invisible semantically (every observation matches a direct
//! rig) and visible economically (the origin executes fewer reads).

use std::sync::Arc;
use std::time::Duration;

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor};
use brmi_apps::bank::{
    brmi_purchase_session, BCreditCard, Bank, CreditCardSkeleton, CreditManagerSkeleton,
    CreditManagerStub,
};
use brmi_apps::list::{brmi_nth_value, ListNode, RemoteListSkeleton};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::fetcher::BatchFetcher;
use brmi_transport::relay::ReadCachePolicy;
use brmi_transport::sim::SimTransport;
use brmi_transport::RequestHandler;
use brmi_wire::{MethodRegistry, RemoteError};

/// A bank rig whose client path runs through a [`BatchFetcher`].
struct FetchedBank {
    bank: Arc<Bank>,
    fetcher: Arc<BatchFetcher>,
    conn: Connection,
    root: RemoteRef,
    executor: Arc<brmi::BatchExecutor>,
}

fn fetched_bank(policy: ReadCachePolicy) -> FetchedBank {
    let origin = RmiServer::new();
    let executor = BatchExecutor::install(&origin);
    let bank = Bank::new();
    origin
        .bind("bank", CreditManagerSkeleton::remote_arc(bank.clone()))
        .expect("fresh origin bind");
    let registry = Arc::new(MethodRegistry::of(&[
        CreditCardSkeleton::INTERFACE_META,
        CreditManagerSkeleton::INTERFACE_META,
    ]));
    let fetcher = BatchFetcher::new(origin as Arc<dyn RequestHandler>, registry, policy);
    let conn = Connection::new(Arc::new(SimTransport::in_process(
        Arc::clone(&fetcher) as Arc<dyn RequestHandler>
    )));
    let root = conn.lookup("bank").expect("lookup through fetcher");
    FetchedBank {
        bank,
        fetcher,
        conn,
        root,
        executor,
    }
}

fn generous_cache() -> ReadCachePolicy {
    ReadCachePolicy {
        ttl: Duration::from_secs(300),
        capacity: 64,
    }
}

/// One cacheable read batch: the account's balance.
fn read_balance(conn: &Connection, account: &RemoteRef) -> Result<f64, RemoteError> {
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let balance = BCreditCard::new(&batch, account).get_balance();
    batch.flush()?;
    balance.get()
}

#[test]
fn purchase_sessions_through_the_fetcher_match_a_direct_rig() {
    let fetched = fetched_bank(generous_cache());
    fetched.bank.open_account("alice", 1000.0);

    let direct_bank = Bank::new();
    direct_bank.open_account("alice", 1000.0);
    let direct_rig = brmi_apps::testkit::AppRig::serve(
        "bank",
        CreditManagerSkeleton::remote_arc(direct_bank.clone()),
    );

    // Mixed sessions (lookup + writes + read) are non-cacheable batches,
    // so they flow through untouched — but their writes must invalidate.
    let amounts = [123.0, 456.0, 2000.0, 10.0]; // one overdraft
    let via_fetcher =
        brmi_purchase_session(&fetched.conn, &fetched.root, "alice", &amounts).unwrap();
    let via_direct =
        brmi_purchase_session(&direct_rig.conn, &direct_rig.root, "alice", &amounts).unwrap();
    assert_eq!(via_fetcher, via_direct);
    assert_eq!(
        fetched.bank.balance_of("alice"),
        direct_bank.balance_of("alice")
    );
}

#[test]
fn repeated_balance_reads_cost_the_origin_one_execution() {
    let fetched = fetched_bank(generous_cache());
    fetched.bank.open_account("alice", 1000.0);
    let manager = CreditManagerStub::new(fetched.root.clone());
    let account = manager
        .find_credit_account("alice".into())
        .unwrap()
        .remote_ref()
        .clone();

    for _ in 0..10 {
        assert_eq!(read_balance(&fetched.conn, &account).unwrap(), 0.0);
    }
    assert_eq!(
        fetched.executor.stats().calls_replayed,
        1,
        "ten client reads, one origin execution"
    );
    let stats = fetched.fetcher.stats();
    assert_eq!(stats.misses(), 1);
    assert_eq!(stats.hits(), 9);
}

#[test]
fn a_write_invalidates_and_the_next_read_is_fresh() {
    let fetched = fetched_bank(generous_cache());
    fetched.bank.open_account("alice", 1000.0);
    let manager = CreditManagerStub::new(fetched.root.clone());
    let account_stub = manager.find_credit_account("alice".into()).unwrap();
    let account = account_stub.remote_ref().clone();

    assert_eq!(read_balance(&fetched.conn, &account).unwrap(), 0.0);
    assert_eq!(read_balance(&fetched.conn, &account).unwrap(), 0.0); // cached

    // A write batch through the fetcher: non-cacheable, bumps the
    // account's epoch before it reaches the origin.
    let batch = Batch::new(fetched.conn.clone(), AbortPolicy);
    let purchase = BCreditCard::new(&batch, &account).make_purchase(250.0);
    batch.flush().unwrap();
    purchase.get().unwrap();

    assert_eq!(
        read_balance(&fetched.conn, &account).unwrap(),
        250.0,
        "read-your-write through the cache"
    );
    let stats = fetched.fetcher.stats();
    assert_eq!(stats.misses(), 2, "initial read + post-write re-probe");
    assert_eq!(stats.hits(), 1);
}

#[test]
fn plain_rmi_writes_also_invalidate_cached_batch_reads() {
    let fetched = fetched_bank(generous_cache());
    fetched.bank.open_account("alice", 1000.0);
    let manager = CreditManagerStub::new(fetched.root.clone());
    let account_stub = manager.find_credit_account("alice".into()).unwrap();
    let account = account_stub.remote_ref().clone();

    assert_eq!(read_balance(&fetched.conn, &account).unwrap(), 0.0);
    // The write travels as a plain RMI `Frame::Call`, not a batch.
    account_stub.make_purchase(99.0).unwrap();
    assert_eq!(read_balance(&fetched.conn, &account).unwrap(), 99.0);
}

#[test]
fn explicit_invalidation_forces_a_re_probe() {
    let fetched = fetched_bank(generous_cache());
    fetched.bank.open_account("alice", 1000.0);
    let manager = CreditManagerStub::new(fetched.root.clone());
    let account = manager
        .find_credit_account("alice".into())
        .unwrap()
        .remote_ref()
        .clone();

    assert_eq!(read_balance(&fetched.conn, &account).unwrap(), 0.0);
    // Server-side mutation the fetcher cannot see: explicit invalidation
    // is the escape hatch.
    fetched.bank.open_account("alice", 500.0); // replaces the account object
    fetched.fetcher.invalidate_all();
    let fresh = manager
        .find_credit_account("alice".into())
        .unwrap()
        .remote_ref()
        .clone();
    assert_eq!(read_balance(&fetched.conn, &fresh).unwrap(), 0.0);
    assert!(fetched.fetcher.stats().invalidations() >= 1);
}

#[test]
fn aggregate_directory_reads_stay_fresh_across_aliased_deletes() {
    use brmi_apps::fileserver::{
        BDirectory, DirectorySkeleton, DirectoryStub, InMemoryDirectory, RemoteFileSkeleton,
    };

    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    let dir = InMemoryDirectory::new();
    dir.populate(3, 8);
    origin
        .bind("files", DirectorySkeleton::remote_arc(dir))
        .expect("fresh bind");
    let registry = Arc::new(MethodRegistry::of(&[
        DirectorySkeleton::INTERFACE_META,
        RemoteFileSkeleton::INTERFACE_META,
    ]));
    let fetcher = BatchFetcher::new(
        origin as Arc<dyn RequestHandler>,
        registry,
        generous_cache(),
    );
    let conn = Connection::new(Arc::new(SimTransport::in_process(
        Arc::clone(&fetcher) as Arc<dyn RequestHandler>
    )));
    let root = conn.lookup("files").unwrap();

    let count = |conn: &Connection, root: &RemoteRef| {
        let batch = Batch::new(conn.clone(), AbortPolicy);
        let n = BDirectory::new(&batch, root).file_count();
        batch.flush().unwrap();
        n.get().unwrap()
    };
    assert_eq!(count(&conn, &root), 3);
    assert_eq!(count(&conn, &root), 3);

    // Deleting through the *file* object also mutates the parent
    // directory's entry list — a write the directory's own epoch never
    // sees. `file_count` therefore must not be `#[read_only]`: were it
    // cached, the count would stay 3 until the TTL lapsed.
    let stub = DirectoryStub::new(root.clone());
    stub.get_file("file0".into()).unwrap().delete().unwrap();
    assert_eq!(
        count(&conn, &root),
        2,
        "aggregate read reflects the aliased delete immediately"
    );
    assert_eq!(
        fetcher.stats().cacheable_batches(),
        0,
        "aggregate directory reads bypass the cache entirely"
    );
}

#[test]
fn list_traversals_stay_correct_and_remote_returning_reads_bypass_the_cache() {
    let origin = RmiServer::new();
    BatchExecutor::install(&origin);
    origin
        .bind(
            "list",
            RemoteListSkeleton::remote_arc(ListNode::chain(&[10, 20, 30])),
        )
        .expect("fresh bind");
    let registry = Arc::new(MethodRegistry::of(&[RemoteListSkeleton::INTERFACE_META]));
    let fetcher = BatchFetcher::new(
        origin as Arc<dyn RequestHandler>,
        registry,
        generous_cache(),
    );
    let conn = Connection::new(Arc::new(SimTransport::in_process(
        Arc::clone(&fetcher) as Arc<dyn RequestHandler>
    )));
    let root = conn.lookup("list").unwrap();

    // `next()` is read-only but remote-returning, so traversal batches are
    // forwarded verbatim; values and the end-of-list exception must match
    // the direct semantics exactly.
    for (depth, expected) in [(0, Ok(10)), (1, Ok(20)), (2, Ok(30))] {
        assert_eq!(brmi_nth_value(&conn, &root, depth), expected);
    }
    let err = brmi_nth_value(&conn, &root, 5).unwrap_err();
    assert_eq!(err.exception(), "EndOfListException");
    assert_eq!(
        fetcher.stats().cacheable_batches(),
        1,
        "only the depth-0 batch (a lone get_value) is cacheable; every \
         batch containing a remote-returning next() passes through"
    );
}
