//! Validates the analytic model (`brmi_bench::model`) against the real
//! middleware running in the simulator, in both halves:
//!
//! 1. **Counts** — the closed-form round-trip / remote-reference /
//!    loopback predictions for every construct must match the observed
//!    traffic *exactly*;
//! 2. **Formula** — applying the cost decomposition to the observed
//!    traffic must reproduce the simulated time to within floating-point
//!    error.
//!
//! Together these are the Detmold & Oudshoorn-style models "extended to
//! the new optimization constructs of BRMI" the paper's Section 6 calls
//! for — and a regression net over the harness's cost accounting.

use brmi_apps::fileserver::{
    brmi_copy_all, brmi_delete_older_than, brmi_fetch, brmi_listing, rmi_copy_all, rmi_fetch,
    rmi_listing, DirectorySkeleton, DirectoryStub, InMemoryDirectory,
};
use brmi_apps::list::{
    brmi_nth_value, brmi_nth_value_unbatched, rmi_nth_value, ListNode, RemoteListSkeleton,
    RemoteListStub,
};
use brmi_apps::noop::{brmi_noops, rmi_noops, NoopServer, NoopSkeleton, NoopStub};
use brmi_apps::simulation::{
    brmi_run, rmi_run, SimulationServer, SimulationSkeleton, SimulationStub,
};
use brmi_apps::testkit::AppRig;
use brmi_bench::model::{counts, predicted_ms_from_stats, TrafficCounts};
use brmi_transport::NetworkProfile;
use brmi_wire::DateMillis;

/// Runs `work` on the rig and checks both model halves.
fn check(rig: &AppRig, expected: TrafficCounts, work: impl FnOnce()) {
    let loopback_before = rig.server.loopback_calls();
    let simulated = rig.measure_ms(work);
    let loopback = rig.server.loopback_calls() - loopback_before;

    assert_eq!(
        rig.stats.requests(),
        expected.round_trips,
        "round trips (model vs observed)"
    );
    assert_eq!(
        rig.stats.remote_refs(),
        expected.remote_refs,
        "marshalled remote references"
    );
    assert_eq!(loopback, expected.loopback_calls, "loopback calls");

    let predicted = predicted_ms_from_stats(rig.profile(), &rig.stats, loopback);
    let error = (predicted - simulated).abs();
    // The virtual clock truncates each charged cost to whole nanoseconds,
    // so the model may differ by up to ~1 ns per round trip; 100 ns of
    // slack is far below anything the figures resolve.
    assert!(
        error < 1e-4,
        "cost formula drifted from the simulator: predicted {predicted} ms, simulated {simulated} ms"
    );
}

fn profiles() -> [NetworkProfile; 2] {
    [
        NetworkProfile::lan_1gbps(),
        NetworkProfile::wireless_54mbps(),
    ]
}

#[test]
fn noop_counts_hold() {
    for profile in profiles() {
        for n in [0u64, 1, 3, 5] {
            let rig = AppRig::simulated(&profile, NoopSkeleton::remote_arc(NoopServer::new()));
            let stub = NoopStub::new(rig.root.clone());
            check(&rig, counts::rmi_noop(n), || {
                rmi_noops(&stub, n as usize).unwrap();
            });
            check(&rig, counts::brmi_noop(n), || {
                brmi_noops(&rig.conn, &rig.root, n as usize).unwrap();
            });
        }
    }
}

fn list_rig(profile: &NetworkProfile) -> AppRig {
    let values: Vec<i32> = (0..8).collect();
    AppRig::simulated(
        profile,
        RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
    )
}

#[test]
fn list_traversal_counts_hold() {
    for profile in profiles() {
        for n in [1u64, 3, 5] {
            let rig = list_rig(&profile);
            let stub = RemoteListStub::new(rig.root.clone());
            check(&rig, counts::rmi_list(n), || {
                rmi_nth_value(&stub, n as usize).unwrap();
            });
            check(&rig, counts::brmi_list(n), || {
                brmi_nth_value(&rig.conn, &rig.root, n as usize).unwrap();
            });
            check(&rig, counts::brmi_list_unbatched(n), || {
                brmi_nth_value_unbatched(&rig.conn, &rig.root, n as usize).unwrap();
            });
        }
    }
}

#[test]
fn simulation_counts_hold() {
    let reps = 4;
    for profile in profiles() {
        for steps in [5u64, 20] {
            let rig = AppRig::simulated(
                &profile,
                SimulationSkeleton::remote_arc(SimulationServer::new()),
            );
            let stub = SimulationStub::new(rig.root.clone());
            check(&rig, counts::rmi_simulation(steps, reps as u64), || {
                rmi_run(&stub, steps as usize, reps).unwrap();
            });
            let rig = AppRig::simulated(
                &profile,
                SimulationSkeleton::remote_arc(SimulationServer::new()),
            );
            check(&rig, counts::brmi_simulation(steps, reps as u64), || {
                brmi_run(&rig.conn, &rig.root, steps as usize, reps).unwrap();
            });
        }
    }
}

fn file_rig(profile: &NetworkProfile, n: usize) -> AppRig {
    let dir = InMemoryDirectory::new();
    dir.populate(n, 512);
    AppRig::simulated(profile, DirectorySkeleton::remote_arc(dir))
}

#[test]
fn fetch_counts_hold() {
    for profile in profiles() {
        for n in [1u64, 4, 10] {
            let names: Vec<String> = (0..n).map(|i| format!("file{i}")).collect();
            let rig = file_rig(&profile, 10);
            let stub = DirectoryStub::new(rig.root.clone());
            check(&rig, counts::rmi_fetch(n), || {
                rmi_fetch(&stub, &names).unwrap();
            });
            check(&rig, counts::brmi_fetch(n), || {
                brmi_fetch(&rig.conn, &rig.root, &names).unwrap();
            });
        }
    }
}

#[test]
fn listing_counts_hold() {
    for profile in profiles() {
        for n in [1u64, 5, 10] {
            let rig = file_rig(&profile, n as usize);
            let stub = DirectoryStub::new(rig.root.clone());
            check(&rig, counts::rmi_listing(n), || {
                rmi_listing(&stub).unwrap();
            });
            check(&rig, counts::brmi_listing(n), || {
                brmi_listing(&rig.conn, &rig.root).unwrap();
            });
        }
    }
}

#[test]
fn chained_delete_counts_hold() {
    let profile = NetworkProfile::lan_1gbps();
    for n in [2u64, 6] {
        let rig = file_rig(&profile, n as usize);
        check(&rig, counts::brmi_delete_older_than(n), || {
            // Cutoff in the middle: some files match, some do not.
            brmi_delete_older_than(&rig.conn, &rig.root, DateMillis(1_500)).unwrap();
        });
    }
}

#[test]
fn folder_copy_counts_hold() {
    let profile = NetworkProfile::lan_1gbps();
    for n in [1u64, 4] {
        // RMI copy.
        let rig = file_rig(&profile, n as usize);
        let dst = InMemoryDirectory::new();
        let dst_ref = rig
            .conn
            .reference(rig.server.export(DirectorySkeleton::remote_arc(dst)));
        let src_stub = DirectoryStub::new(rig.root.clone());
        let dst_stub = DirectoryStub::new(dst_ref);
        check(&rig, counts::rmi_copy_all(n), || {
            rmi_copy_all(&src_stub, &dst_stub).unwrap();
        });

        // BRMI copy.
        let rig = file_rig(&profile, n as usize);
        let dst = InMemoryDirectory::new();
        let dst_ref = rig
            .conn
            .reference(rig.server.export(DirectorySkeleton::remote_arc(dst)));
        check(&rig, counts::brmi_copy_all(n), || {
            brmi_copy_all(&rig.conn, &rig.root, &dst_ref).unwrap();
        });
    }
}
