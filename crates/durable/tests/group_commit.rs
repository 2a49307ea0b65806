//! Concurrency tests for the pipelined group commit: a leader fsyncs
//! group N with the log mutex released while appenders stage group N+1.
//! Whatever the interleaving, a committer may return `Ok` only once its
//! record is on disk, LSNs stay dense across rotations, a power cut or
//! I/O error inside a group fails all of that group's committers, and no
//! committer ever hangs (every test joins every thread it starts).
//!
//! The randomized test derives its crash sites from `BRMI_CRASH_SEED`
//! (decimal `u64`), like `prop_crash_recovery`; CI runs two seeds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use brmi_durable::{CrashPoint, Log, LogConfig, LogError, TempDir};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 200;

fn payload(thread: u64, i: u64) -> Vec<u8> {
    // Variable-length, so groups and segment boundaries fall at varying
    // offsets inside records.
    let mut p = format!("t{thread}-i{i}:").into_bytes();
    p.extend(std::iter::repeat_n(b'x', ((thread + i) % 11) as usize * 7));
    p
}

/// `THREADS` threads, released together, each `append_durable`-ing until
/// `per_thread` records or the first error. Returns what every thread was
/// told: `lsn → payload` for the `Ok`s, and the errors.
fn hammer(log: &Log, per_thread: u64) -> (BTreeMap<u64, Vec<u8>>, Vec<LogError>) {
    let start = Barrier::new(THREADS as usize);
    let outcomes: Vec<_> = thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    start.wait();
                    for i in 0..per_thread {
                        let data = payload(t, i);
                        match log.append_durable(&data) {
                            Ok(lsn) => {
                                assert!(
                                    log.durable_lsn() > lsn,
                                    "append_durable returned lsn {lsn} before it was durable"
                                );
                                acked.push((lsn, data));
                            }
                            Err(err) => return (acked, Some(err)),
                        }
                    }
                    (acked, None)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("appender panicked"))
            .collect()
    });
    let mut acked = BTreeMap::new();
    let mut errors = Vec::new();
    for (records, error) in outcomes {
        for (lsn, data) in records {
            assert!(
                acked.insert(lsn, data).is_none(),
                "lsn {lsn} handed out twice"
            );
        }
        errors.extend(error);
    }
    (acked, errors)
}

/// Runs the full workload crash-free under `config`, then reopens and
/// checks that recovery returns exactly what the appenders were told.
/// Returns how many segments the run ended with.
fn hammer_and_recover(tag: &str, config: LogConfig) -> usize {
    let total = THREADS * PER_THREAD;
    let dir = TempDir::new(tag);
    let (log, _) = Log::open(dir.path(), config).expect("open");
    let (acked, errors) = hammer(&log, PER_THREAD);
    assert!(errors.is_empty(), "crash-free run failed: {errors:?}");
    let lsns: Vec<u64> = acked.keys().copied().collect();
    assert_eq!(lsns, (0..total).collect::<Vec<_>>(), "lsns are dense");
    let stats = log.stats();
    assert_eq!(stats.appends, total);
    assert!(stats.fsyncs <= stats.appends, "{stats:?}");
    assert_eq!(log.durable_lsn(), total);
    let segments = log.segment_count();
    drop(log);

    let (log, recovered) = Log::open(dir.path(), config).expect("recover");
    assert_eq!(recovered.truncated_records, 0);
    assert_eq!(recovered.next_lsn, total);
    let replayed: BTreeMap<u64, Vec<u8>> = recovered.records.into_iter().collect();
    assert_eq!(
        replayed, acked,
        "recovery sees what the appenders were told"
    );
    // The reopened index is rebuilt as `seg_base + position`: a record
    // filed under the wrong segment would read back as another's payload.
    for (lsn, data) in &acked {
        assert_eq!(log.read(*lsn).expect("read").as_deref(), Some(&data[..]));
    }
    segments
}

#[test]
fn concurrent_appenders_are_durable_at_return_and_recover_in_order() {
    hammer_and_recover("pipeline", LogConfig::default());
}

#[test]
fn rotation_with_records_staged_keeps_every_lsn_in_its_segment() {
    let config = LogConfig {
        segment_bytes: 4096,
        ..LogConfig::default()
    };
    let segments = hammer_and_recover("pipeline-rotate", config);
    assert!(
        segments > 8,
        "workload must rotate many times, saw {segments}"
    );
}

/// Stages `group` without committing, then commits every record from its
/// own thread at once. Returns each committer's result, in LSN order.
fn commit_group_concurrently(log: &Log, group: &[Vec<u8>]) -> Vec<Result<(), LogError>> {
    let lsns: Vec<u64> = group
        .iter()
        .map(|data| log.append(data).expect("stage"))
        .collect();
    let start = Barrier::new(lsns.len());
    thread::scope(|scope| {
        let committers: Vec<_> = lsns
            .iter()
            .map(|&lsn| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    log.commit_through(lsn)
                })
            })
            .collect();
        committers
            .into_iter()
            .map(|c| c.join().expect("committer panicked"))
            .collect()
    })
}

#[test]
fn power_cut_at_every_byte_of_a_group_fails_all_its_committers() {
    let prefix: Vec<Vec<u8>> = (0..2).map(|i| payload(0, i)).collect();
    let group: Vec<Vec<u8>> = (0..6).map(|i| payload(1, i)).collect();
    let group_bytes = end_of(&group, group.len());

    for site in 0..=group_bytes {
        let dir = TempDir::new("group-cut");
        let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
        for data in &prefix {
            log.append_durable(data).expect("prefix");
        }
        // The budget counts from here: `site` bytes of the group get out.
        log.arm_crash(CrashPoint::at_byte(site));
        let results = commit_group_concurrently(&log, &group);
        if site == group_bytes {
            assert!(results.iter().all(Result::is_ok), "site {site}: no cut");
        } else {
            // One write carries the whole group, so the cut takes all of
            // it: nobody may be told `Ok`, whether it led, followed or
            // arrived after the lights went out.
            for result in &results {
                assert!(
                    matches!(result, Err(LogError::Crashed)),
                    "site {site}: {result:?}"
                );
            }
            assert_eq!(log.durable_lsn(), prefix.len() as u64, "site {site}");
        }
        drop(log);

        let (_, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
        let whole = (0..=group.len())
            .rev()
            .find(|&records| end_of(&group, records) <= site)
            .expect("zero records end at byte 0");
        let expect: Vec<&Vec<u8>> = prefix.iter().chain(&group[..whole]).collect();
        let got: Vec<&Vec<u8>> = recovered.records.iter().map(|(_, data)| data).collect();
        assert_eq!(got, expect, "site {site}: intact frames survive, in order");
        assert_eq!(
            recovered.truncated_records,
            u64::from(end_of(&group, whole) < site),
            "site {site}: a partial frame is the torn tail"
        );
    }
}

/// Byte offset at which the first `records` frames of `group` end.
fn end_of(group: &[Vec<u8>], records: usize) -> u64 {
    group[..records].iter().map(|d| 8 + d.len() as u64).sum()
}

#[test]
fn seeded_power_cuts_under_racing_appenders_never_lose_an_acked_record() {
    let seed = std::env::var("BRMI_CRASH_SEED")
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .unwrap_or(0xB0A7_5EED);
    // A crash-free run measures the span the sites are drawn from.
    let span = {
        let dir = TempDir::new("race-span");
        let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
        let (_, errors) = hammer(&log, 40);
        assert!(errors.is_empty());
        log.stats().bytes
    };
    for round in 0..12_u64 {
        let (point, site) = CrashPoint::seeded(seed.wrapping_add(round), span);
        let dir = TempDir::new("race-cut");
        let (log, _) = Log::open_with(dir.path(), LogConfig::default(), point).expect("open");
        let (acked, errors) = hammer(&log, 40);
        assert!(
            !errors.is_empty(),
            "seed {seed} round {round}: site {site} must strike inside the run"
        );
        for err in &errors {
            assert!(
                matches!(err, LogError::Crashed),
                "seed {seed} round {round} site {site}: {err}"
            );
        }
        drop(log);

        let (_, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
        let replayed: BTreeMap<u64, Vec<u8>> = recovered.records.into_iter().collect();
        assert_eq!(
            replayed.keys().copied().collect::<Vec<_>>(),
            (0..replayed.len() as u64).collect::<Vec<_>>(),
            "seed {seed} round {round} site {site}: recovered lsns are dense"
        );
        for (lsn, data) in &acked {
            assert_eq!(
                replayed.get(lsn),
                Some(data),
                "seed {seed} round {round} site {site}: acked lsn {lsn} lost"
            );
        }
    }
}

#[test]
fn a_failed_flush_is_sticky_until_reopen() {
    let first = payload(0, 0);
    let group: Vec<Vec<u8>> = (0..4).map(|i| payload(2, i)).collect();
    let dir = TempDir::new("sticky");
    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
    log.append_durable(&first).expect("first");
    // The disk fails once, 5 bytes into the group's write, then works
    // again: the group is lost but the machine stays up.
    log.arm_crash(CrashPoint::io_error_at_byte(5));
    for result in commit_group_concurrently(&log, &group) {
        assert!(matches!(result, Err(LogError::Io(_))), "{result:?}");
    }
    assert!(!log.is_crashed());
    assert_eq!(log.durable_lsn(), 1, "the lost group is not durable");

    // Nothing later may succeed: a working flush would otherwise move the
    // horizon over the four lost records.
    assert!(matches!(log.append(b"later"), Err(LogError::Io(_))));
    assert!(matches!(log.append_durable(b"later"), Err(LogError::Io(_))));
    assert!(matches!(log.commit(), Err(LogError::Io(_))));
    assert!(matches!(log.commit_through(2), Err(LogError::Io(_))));
    assert!(matches!(log.write_snapshot(1, b"s"), Err(LogError::Io(_))));
    assert_eq!(log.durable_lsn(), 1);
    // What was durable before the failure still is.
    log.commit_through(0)
        .expect("lsn 0 was flushed before the failure");
    drop(log);

    let (log, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
    assert_eq!(recovered.records, vec![(0, first)]);
    assert_eq!(recovered.truncated_records, 1, "the 5 torn bytes");
    assert_eq!(log.append_durable(b"resumed").expect("resume"), 1);
}

#[test]
fn snapshots_racing_appenders_claim_only_durable_history() {
    let config = LogConfig {
        segment_bytes: 4096,
        ..LogConfig::default()
    };
    let dir = TempDir::new("snap-race");
    let (log, _) = Log::open(dir.path(), config).expect("open");
    let stop = AtomicBool::new(false);
    let mut last_floor = 0;
    let acked: BTreeMap<u64, Vec<u8>> = thread::scope(|scope| {
        let appenders: Vec<_> = (0..4_u64)
            .map(|t| {
                let (log, stop) = (&log, &stop);
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let mut i = 0;
                    while !stop.load(Ordering::SeqCst) {
                        let data = payload(t, i);
                        acked.push((log.append_durable(&data).expect("append"), data));
                        i += 1;
                    }
                    acked
                })
            })
            .collect();
        for _ in 0..25 {
            // Let the appenders move on, so every claim is taken with
            // records staged or in flight around it.
            while log.next_lsn() < last_floor + 16 {
                thread::yield_now();
            }
            let floor = log.next_lsn();
            // `write_snapshot` itself asserts the claim is durable before
            // it writes a byte.
            log.write_snapshot(floor, &floor.to_le_bytes())
                .expect("snapshot");
            assert!(log.durable_lsn() >= floor);
            assert_eq!(log.snapshot_floor(), floor);
            last_floor = floor;
        }
        stop.store(true, Ordering::SeqCst);
        appenders
            .into_iter()
            .flat_map(|a| a.join().expect("appender panicked"))
            .collect()
    });
    let next_lsn = log.next_lsn();
    assert_eq!(acked.len() as u64, next_lsn, "lsns are dense");
    drop(log);

    let (_, recovered) = Log::open(dir.path(), config).expect("recover");
    let (snap_lsn, snap) = recovered.snapshot.expect("snapshot survives");
    assert_eq!(snap_lsn, last_floor);
    assert_eq!(snap, last_floor.to_le_bytes());
    let tail: Vec<(u64, Vec<u8>)> = acked
        .range(last_floor..)
        .map(|(l, d)| (*l, d.clone()))
        .collect();
    assert_eq!(
        recovered.records, tail,
        "everything above the floor replays"
    );
    assert_eq!(recovered.next_lsn, next_lsn);
}
