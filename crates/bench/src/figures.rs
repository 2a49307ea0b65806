//! One scenario per paper figure, plus the design-choice ablations
//! (the `ablation_*` scenarios, printed by the `ablations` sweep).
//!
//! Every scenario runs the genuine application clients from [`brmi_apps`]
//! over the simulated network; nothing is analytically shortcut — byte
//! counts come from the real codec and round trips from the real
//! middleware.

use brmi::policy::AbortPolicy;
use brmi::{Batch, BatchExecutor, BatchFuture};
use brmi_apps::fileserver::{
    brmi_fetch, rmi_fetch, BDirectory, DirectorySkeleton, DirectoryStub, InMemoryDirectory,
};
use brmi_apps::list::{
    brmi_nth_value, brmi_nth_value_unbatched, rmi_nth_value, ListNode, RemoteListSkeleton,
    RemoteListStub,
};
use brmi_apps::noop::{brmi_noops, rmi_noops, NoopServer, NoopSkeleton, NoopStub};
use brmi_apps::simulation::{
    brmi_run, rmi_run, SimulationServer, SimulationSkeleton, SimulationStub,
};
use brmi_transport::NetworkProfile;
use brmi_wire::codec::IntWidth;

use crate::Figure;
use brmi_apps::testkit::AppRig;

/// Reps per simulation step in Figures 10/11 (the paper does not state
/// its value; 4 keeps loopback cost visible without dominating).
pub const SIMULATION_REPS: i32 = 4;

/// Macro-benchmark workload (Section 5.4): 10 files, 100 KB total.
pub const FILE_COUNT: usize = 10;
/// Size of each file in the macro benchmark.
pub const FILE_SIZE: usize = 10 * 1024;

fn network_tag(profile: &NetworkProfile) -> &'static str {
    if profile.name.starts_with("lan") {
        "LAN"
    } else {
        "Wireless"
    }
}

/// Figures 5/6 — the no-op micro-benchmark: n do-nothing calls.
pub fn noop_figure(id: &'static str, profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=5).collect();
    let mut rmi_ms = Vec::new();
    let mut brmi_ms = Vec::new();
    for &n in &xs {
        let rig = AppRig::simulated(profile, NoopSkeleton::remote_arc(NoopServer::new()));
        let stub = NoopStub::new(rig.root.clone());
        rmi_ms.push(rig.measure_ms(|| rmi_noops(&stub, n as usize).expect("rmi noops")));
        brmi_ms.push(rig.measure_ms(|| {
            brmi_noops(&rig.conn, &rig.root, n as usize).expect("brmi noops");
        }));
    }
    Figure {
        id,
        title: format!("No-op Benchmark ({})", network_tag(profile)),
        x_label: "number of method calls",
        x: xs,
        rmi_ms,
        brmi_ms,
    }
}

fn list_rig(profile: &NetworkProfile) -> AppRig {
    let values: Vec<i32> = (0..8).map(|i| i * 11).collect();
    AppRig::simulated(
        profile,
        RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
    )
}

/// Figures 7/8 — linked-list traversal: n hops then one value read.
pub fn list_figure(id: &'static str, profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=5).collect();
    let mut rmi_ms = Vec::new();
    let mut brmi_ms = Vec::new();
    for &n in &xs {
        let rig = list_rig(profile);
        let stub = RemoteListStub::new(rig.root.clone());
        rmi_ms.push(rig.measure_ms(|| {
            rmi_nth_value(&stub, n as usize).expect("rmi traversal");
        }));
        brmi_ms.push(rig.measure_ms(|| {
            brmi_nth_value(&rig.conn, &rig.root, n as usize).expect("brmi traversal");
        }));
    }
    Figure {
        id,
        title: format!("Traversing a Linked List ({})", network_tag(profile)),
        x_label: "number of traversals",
        x: xs,
        rmi_ms,
        brmi_ms,
    }
}

/// Figure 9 — linked-list traversal with batches of size 1: BRMI flushes
/// after every call, so both series are linear; BRMI stays below RMI
/// because remote results are never marshalled.
pub fn list_unbatched_figure(id: &'static str, profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=5).collect();
    let mut rmi_ms = Vec::new();
    let mut brmi_ms = Vec::new();
    for &n in &xs {
        let rig = list_rig(profile);
        let stub = RemoteListStub::new(rig.root.clone());
        rmi_ms.push(rig.measure_ms(|| {
            rmi_nth_value(&stub, n as usize).expect("rmi traversal");
        }));
        brmi_ms.push(rig.measure_ms(|| {
            brmi_nth_value_unbatched(&rig.conn, &rig.root, n as usize)
                .expect("brmi unbatched traversal");
        }));
    }
    Figure {
        id,
        title: format!(
            "Linked List Traversal, Batches of Size 1 ({})",
            network_tag(profile)
        ),
        x_label: "number of traversals",
        x: xs,
        rmi_ms,
        brmi_ms,
    }
}

/// Figures 10/11 — the remote simulation: steps = 5..40 by 5, flush per
/// step; the gap is pure remote-reference-identity benefit.
pub fn simulation_figure(id: &'static str, profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=8).map(|i| i * 5).collect();
    let mut rmi_ms = Vec::new();
    let mut brmi_ms = Vec::new();
    for &steps in &xs {
        let rig = AppRig::simulated(
            profile,
            SimulationSkeleton::remote_arc(SimulationServer::new()),
        );
        let stub = SimulationStub::new(rig.root.clone());
        rmi_ms.push(rig.measure_ms(|| {
            rmi_run(&stub, steps as usize, SIMULATION_REPS).expect("rmi simulation");
        }));
        let rig = AppRig::simulated(
            profile,
            SimulationSkeleton::remote_arc(SimulationServer::new()),
        );
        brmi_ms.push(rig.measure_ms(|| {
            brmi_run(&rig.conn, &rig.root, steps as usize, SIMULATION_REPS)
                .expect("brmi simulation");
        }));
    }
    Figure {
        id,
        title: format!("Remote Simulation ({})", network_tag(profile)),
        x_label: "number of simulation steps",
        x: xs,
        rmi_ms,
        brmi_ms,
    }
}

fn file_rig(profile: &NetworkProfile) -> AppRig {
    let dir = InMemoryDirectory::new();
    dir.populate(FILE_COUNT, FILE_SIZE);
    AppRig::simulated(profile, DirectorySkeleton::remote_arc(dir))
}

/// Figures 12/13 — the Remote File Server macro benchmark: request and
/// transfer n of the 10 files (100 KB total).
pub fn fileserver_figure(id: &'static str, profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=FILE_COUNT as u32).collect();
    let mut rmi_ms = Vec::new();
    let mut brmi_ms = Vec::new();
    for &n in &xs {
        let names: Vec<String> = (0..n).map(|i| format!("file{i}")).collect();
        let rig = file_rig(profile);
        let stub = DirectoryStub::new(rig.root.clone());
        rmi_ms.push(rig.measure_ms(|| {
            rmi_fetch(&stub, &names).expect("rmi fetch");
        }));
        brmi_ms.push(rig.measure_ms(|| {
            brmi_fetch(&rig.conn, &rig.root, &names).expect("brmi fetch");
        }));
    }
    Figure {
        id,
        title: format!("File Server ({})", network_tag(profile)),
        x_label: "number of files",
        x: xs,
        rmi_ms,
        brmi_ms,
    }
}

/// Ablation A — identity preservation off: the same batched traversal,
/// with the executor exporting remote results like RMI. The "RMI" column
/// holds normal BRMI; the "BRMI" column holds the ablated executor.
pub fn ablation_identity(profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=5).collect();
    let mut with_identity = Vec::new();
    let mut without_identity = Vec::new();
    for &n in &xs {
        let rig = list_rig(profile);
        with_identity.push(rig.measure_ms(|| {
            brmi_nth_value(&rig.conn, &rig.root, n as usize).expect("traversal");
        }));
        let values: Vec<i32> = (0..8).map(|i| i * 11).collect();
        let rig = AppRig::simulated_with(
            profile,
            RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
            BatchExecutor::without_identity_preservation(),
            IntWidth::Varint,
        );
        without_identity.push(rig.measure_ms(|| {
            brmi_nth_value(&rig.conn, &rig.root, n as usize).expect("traversal");
        }));
    }
    Figure {
        id: "ablA",
        title: format!(
            "Ablation: identity preservation on/off ({})",
            network_tag(profile)
        ),
        x_label: "number of traversals",
        x: xs,
        rmi_ms: without_identity,
        brmi_ms: with_identity,
    }
}

/// Ablation B — cursor vs two-batch listing: the single-batch cursor
/// listing against fetching the array first and batching the per-file
/// attribute reads in a second batch. The "RMI" column holds the
/// two-batch variant.
pub fn ablation_cursor(profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=FILE_COUNT as u32).collect();
    let mut cursor_ms = Vec::new();
    let mut two_batch_ms = Vec::new();
    for &n in &xs {
        let rig = file_rig(profile);
        cursor_ms.push(rig.measure_ms(|| {
            let batch = Batch::new(rig.conn.clone(), AbortPolicy);
            let root = BDirectory::new(&batch, &rig.root);
            let cursor = root.list_files();
            let name = cursor.get_name();
            let length = cursor.length();
            batch.flush().expect("flush");
            let mut taken = 0;
            while cursor.advance() && taken < n {
                let _ = (name.get().expect("name"), length.get().expect("length"));
                taken += 1;
            }
        }));
        let rig = file_rig(profile);
        two_batch_ms.push(rig.measure_ms(|| {
            // Batch 1 fetches the remote array RMI-style (references
            // cross the wire); batch 2 reads attributes per element.
            let stub = DirectoryStub::new(rig.root.clone());
            let files = stub.list_files().expect("list");
            let batch = Batch::new(rig.conn.clone(), AbortPolicy);
            let futures: Vec<(BatchFuture<String>, BatchFuture<i64>)> = files
                .iter()
                .take(n as usize)
                .map(|file| {
                    let b = brmi_apps::fileserver::BRemoteFile::new(&batch, file.remote_ref());
                    (b.get_name(), b.length())
                })
                .collect();
            batch.flush().expect("flush");
            for (name, length) in futures {
                let _ = (name.get().expect("name"), length.get().expect("length"));
            }
        }));
    }
    Figure {
        id: "ablB",
        title: format!(
            "Ablation: cursor vs two-batch listing ({})",
            network_tag(profile)
        ),
        x_label: "number of files read",
        x: xs,
        rmi_ms: two_batch_ms,
        brmi_ms: cursor_ms,
    }
}

/// Ablation C — exception-policy overhead on a long healthy batch: Abort
/// vs Custom with many rules. The "RMI" column holds the custom policy.
pub fn ablation_policy(profile: &NetworkProfile) -> Figure {
    use brmi_wire::invocation::{ExceptionAction, PolicyRule, PolicySpec};

    let xs: Vec<u32> = [10u32, 20, 40, 80].into();
    let mut abort_ms = Vec::new();
    let mut custom_ms = Vec::new();
    for &n in &xs {
        let rig = AppRig::simulated(profile, NoopSkeleton::remote_arc(NoopServer::new()));
        abort_ms.push(rig.measure_ms(|| {
            brmi_noops(&rig.conn, &rig.root, n as usize).expect("noops");
        }));
        let rig = AppRig::simulated(profile, NoopSkeleton::remote_arc(NoopServer::new()));
        custom_ms.push(rig.measure_ms(|| {
            // The committed baseline pins each rule's wire bytes to the
            // original one-byte method name, so the spec is built directly
            // rather than through `CustomPolicy` and a method descriptor (a
            // rule naming a method the interface doesn't have is legal — it
            // just never matches).
            let policy = PolicySpec::Custom {
                default: ExceptionAction::Continue,
                rules: (0..16)
                    .map(|i| PolicyRule {
                        exception: Some(format!("E{i}")),
                        method: Some("m".to_owned()),
                        index: Some(i),
                        action: ExceptionAction::Break,
                    })
                    .collect(),
            };
            let batch = Batch::new(rig.conn.clone(), policy);
            let noop = brmi_apps::noop::BNoop::new(&batch, &rig.root);
            let futures: Vec<BatchFuture<()>> = (0..n).map(|_| noop.noop()).collect();
            batch.flush().expect("flush");
            for f in futures {
                f.get().expect("noop");
            }
        }));
    }
    Figure {
        id: "ablC",
        title: format!(
            "Ablation: exception-policy overhead ({})",
            network_tag(profile)
        ),
        x_label: "batched calls",
        x: xs,
        rmi_ms: custom_ms,
        brmi_ms: abort_ms,
    }
}

/// Ablation D — codec: varint vs fixed-width integer encoding, on a
/// framing-dominated workload (big batches of no-ops, where the bytes
/// are almost all descriptors) — fixed-width models Java-serialization-
/// style encodings. The "RMI" column holds the fixed-width variant, the
/// "BRMI" column the varint default (both run the BRMI batch client).
pub fn ablation_codec(profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = vec![20, 40, 80, 160];
    let mut varint_ms = Vec::new();
    let mut fixed_ms = Vec::new();
    for &n in &xs {
        for (width, out) in [
            (IntWidth::Varint, &mut varint_ms),
            (IntWidth::Fixed8, &mut fixed_ms),
        ] {
            let rig = AppRig::simulated_with(
                profile,
                NoopSkeleton::remote_arc(NoopServer::new()),
                BatchExecutor::new(),
                width,
            );
            out.push(rig.measure_ms(|| {
                brmi_noops(&rig.conn, &rig.root, n as usize).expect("brmi noops");
            }));
        }
    }
    Figure {
        id: "ablD",
        title: format!(
            "Ablation: varint vs fixed-width codec ({})",
            network_tag(profile)
        ),
        x_label: "batched calls",
        x: xs,
        rmi_ms: fixed_ms,
        brmi_ms: varint_ms,
    }
}

/// Ablation D′ — the same codec comparison on a payload-dominated
/// workload (the Figure 12 bulk fetch): file contents are raw bytes at
/// either width, so the encoding choice should all but vanish.
pub fn ablation_codec_payload(profile: &NetworkProfile) -> Figure {
    let xs: Vec<u32> = (1..=FILE_COUNT as u32).collect();
    let mut varint_ms = Vec::new();
    let mut fixed_ms = Vec::new();
    for &n in &xs {
        let names: Vec<String> = (0..n).map(|i| format!("file{i}")).collect();
        for (width, out) in [
            (IntWidth::Varint, &mut varint_ms),
            (IntWidth::Fixed8, &mut fixed_ms),
        ] {
            let dir = InMemoryDirectory::new();
            dir.populate(FILE_COUNT, FILE_SIZE);
            let rig = AppRig::simulated_with(
                profile,
                DirectorySkeleton::remote_arc(dir),
                BatchExecutor::new(),
                width,
            );
            out.push(rig.measure_ms(|| {
                brmi_fetch(&rig.conn, &rig.root, &names).expect("brmi fetch");
            }));
        }
    }
    Figure {
        id: "ablD2",
        title: format!(
            "Ablation: codec width on payload-dominated fetch ({})",
            network_tag(profile)
        ),
        x_label: "number of files",
        x: xs,
        rmi_ms: fixed_ms,
        brmi_ms: varint_ms,
    }
}

/// Every paper figure, in order.
pub fn all_paper_figures() -> Vec<Figure> {
    let lan = NetworkProfile::lan_1gbps();
    let wireless = NetworkProfile::wireless_54mbps();
    vec![
        noop_figure("fig05", &lan),
        noop_figure("fig06", &wireless),
        list_figure("fig07", &lan),
        list_figure("fig08", &wireless),
        list_unbatched_figure("fig09", &lan),
        simulation_figure("fig10", &lan),
        simulation_figure("fig11", &wireless),
        fileserver_figure("fig12", &lan),
        fileserver_figure("fig13", &wireless),
    ]
}

/// Every design-choice ablation, in the order the `ablations` sweep
/// prints them (and the order `BENCH_ablations.json` pins them).
pub fn all_ablation_figures() -> Vec<Figure> {
    let lan = NetworkProfile::lan_1gbps();
    let wireless = NetworkProfile::wireless_54mbps();
    vec![
        ablation_identity(&lan),
        ablation_identity(&wireless),
        ablation_cursor(&lan),
        ablation_policy(&lan),
        ablation_codec(&wireless),
        ablation_codec_payload(&wireless),
    ]
}
