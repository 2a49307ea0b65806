//! Extension experiments beyond the paper's figures.
//!
//! The paper compares BRMI to implicit batching and to the hand-written
//! Data Transfer Object pattern only in prose (Sections 1 and 6),
//! because no public implementations existed to measure. This repo ships
//! both comparators — `brmi_implicit` and
//! [`brmi_apps::fileserver::DirectoryFacade`] — so the comparison can be
//! measured:
//!
//! * **ext1/ext2** — directory listing: RMI vs implicit (natural loop)
//!   vs implicit (restructured) vs BRMI. Implicit lands between RMI and
//!   BRMI: no cursors, so per-iteration demands cost a round trip each.
//! * **ext3** — linked-list traversal: implicit matches BRMI's shape
//!   (chained remote results defer fully) modulo the trailing session
//!   release it cannot avoid.
//! * **ext4** — per-file exception handling: handler boundaries force
//!   implicit batching to flush per call; explicit `Continue` policies
//!   keep one round trip.
//! * **ext5/ext6** — bulk fetch: BRMI matches the hand-optimized DTO
//!   facade without any server change.

use brmi_apps::fileserver::{
    brmi_fetch, brmi_listing, brmi_read_all_tolerant, dto_fetch, rmi_fetch, rmi_listing,
    DirectoryFacadeSkeleton, DirectoryFacadeStub, DirectorySkeleton, DirectoryStub, FacadeServer,
    InMemoryDirectory,
};
use brmi_apps::implicit_clients::{
    implicit_listing, implicit_listing_restructured, implicit_nth_value, implicit_read_all_tolerant,
};
use brmi_apps::list::{
    brmi_nth_value, rmi_nth_value, ListNode, RemoteListSkeleton, RemoteListStub,
};
use brmi_transport::NetworkProfile;

use crate::figures::{FILE_COUNT, FILE_SIZE};
use crate::MultiFigure;
use brmi_apps::testkit::AppRig;

fn network_tag(profile: &NetworkProfile) -> &'static str {
    if profile.name.starts_with("lan") {
        "LAN"
    } else {
        "Wireless"
    }
}

fn listing_rig(profile: &NetworkProfile, files: usize) -> AppRig {
    let dir = InMemoryDirectory::new();
    dir.populate(files, 64);
    AppRig::simulated(profile, DirectorySkeleton::remote_arc(dir))
}

/// ext1/ext2 — directory listing across all four systems.
pub fn implicit_listing_figure(id: &'static str, profile: &NetworkProfile) -> MultiFigure {
    let xs: Vec<u32> = (1..=FILE_COUNT as u32).collect();
    let mut rmi = Vec::new();
    let mut implicit = Vec::new();
    let mut restructured = Vec::new();
    let mut brmi = Vec::new();
    for &n in &xs {
        let rig = listing_rig(profile, n as usize);
        let stub = DirectoryStub::new(rig.root.clone());
        rmi.push(rig.measure_ms(|| {
            rmi_listing(&stub).expect("rmi listing");
        }));
        implicit.push(rig.measure_ms(|| {
            implicit_listing(&rig.conn, &rig.root).expect("implicit listing");
        }));
        restructured.push(rig.measure_ms(|| {
            implicit_listing_restructured(&rig.conn, &rig.root).expect("restructured listing");
        }));
        brmi.push(rig.measure_ms(|| {
            brmi_listing(&rig.conn, &rig.root).expect("brmi listing");
        }));
    }
    MultiFigure {
        id,
        title: format!(
            "Implicit batching vs BRMI: directory listing ({})",
            network_tag(profile)
        ),
        x_label: "files in directory",
        x: xs,
        series: vec![
            ("RMI", rmi),
            ("Implicit", implicit),
            ("Impl-restr", restructured),
            ("BRMI", brmi),
        ],
    }
}

/// ext3 — linked-list traversal: implicit defers as well as BRMI.
pub fn implicit_traversal_figure(id: &'static str, profile: &NetworkProfile) -> MultiFigure {
    let xs: Vec<u32> = (1..=5).collect();
    let values: Vec<i32> = (0..8).map(|i| i * 3).collect();
    let mut rmi = Vec::new();
    let mut implicit = Vec::new();
    let mut brmi = Vec::new();
    for &n in &xs {
        let rig = AppRig::simulated(
            profile,
            RemoteListSkeleton::remote_arc(ListNode::chain(&values)),
        );
        let stub = RemoteListStub::new(rig.root.clone());
        rmi.push(rig.measure_ms(|| {
            rmi_nth_value(&stub, n as usize).expect("rmi traversal");
        }));
        implicit.push(rig.measure_ms(|| {
            implicit_nth_value(&rig.conn, &rig.root, n as usize).expect("implicit traversal");
        }));
        brmi.push(rig.measure_ms(|| {
            brmi_nth_value(&rig.conn, &rig.root, n as usize).expect("brmi traversal");
        }));
    }
    MultiFigure {
        id,
        title: format!(
            "Implicit batching vs BRMI: list traversal ({})",
            network_tag(profile)
        ),
        x_label: "number of traversals",
        x: xs,
        series: vec![("RMI", rmi), ("Implicit", implicit), ("BRMI", brmi)],
    }
}

/// ext4 — per-file exception handling: the handler boundary is a flush
/// point for implicit batching; explicit batching keeps one round trip
/// with a `Continue` policy.
pub fn fine_grained_errors_figure(id: &'static str, profile: &NetworkProfile) -> MultiFigure {
    let xs: Vec<u32> = vec![2, 4, 8, 16];
    let mut implicit = Vec::new();
    let mut brmi = Vec::new();
    for &n in &xs {
        let rig = listing_rig(profile, n as usize);
        // Every other name is missing, so handlers actually fire.
        let names: Vec<String> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    format!("file{i}")
                } else {
                    format!("missing{i}")
                }
            })
            .collect();
        implicit.push(rig.measure_ms(|| {
            implicit_read_all_tolerant(&rig.conn, &rig.root, &names).expect("implicit reads");
        }));
        brmi.push(rig.measure_ms(|| {
            brmi_read_all_tolerant(&rig.conn, &rig.root, &names).expect("brmi reads");
        }));
    }
    MultiFigure {
        id,
        title: format!(
            "Per-call exception handling: implicit vs explicit ({})",
            network_tag(profile)
        ),
        x_label: "files read (half missing)",
        x: xs,
        series: vec![("Implicit", implicit), ("BRMI", brmi)],
    }
}

/// ext5/ext6 — bulk fetch: BRMI vs the hand-optimized DTO facade
/// (the Remote Facade / Data Transfer Object pattern of the related
/// work) vs RMI. The facade needs a server rewritten per client pattern;
/// BRMI should match it within per-call recording overhead.
pub fn dto_facade_figure(id: &'static str, profile: &NetworkProfile) -> MultiFigure {
    let xs: Vec<u32> = (1..=FILE_COUNT as u32).collect();
    let mut rmi = Vec::new();
    let mut dto = Vec::new();
    let mut brmi = Vec::new();
    for &n in &xs {
        let names: Vec<String> = (0..n).map(|i| format!("file{i}")).collect();
        let dir = InMemoryDirectory::new();
        dir.populate(FILE_COUNT, FILE_SIZE);
        let rig = AppRig::simulated(profile, DirectorySkeleton::remote_arc(dir.clone()));
        let facade_ref = rig.conn.reference(
            rig.server
                .export(DirectoryFacadeSkeleton::remote_arc(FacadeServer::new(dir))),
        );
        let stub = DirectoryStub::new(rig.root.clone());
        let facade = DirectoryFacadeStub::new(facade_ref);
        rmi.push(rig.measure_ms(|| {
            rmi_fetch(&stub, &names).expect("rmi fetch");
        }));
        dto.push(rig.measure_ms(|| {
            dto_fetch(&facade, &names).expect("dto fetch");
        }));
        brmi.push(rig.measure_ms(|| {
            brmi_fetch(&rig.conn, &rig.root, &names).expect("brmi fetch");
        }));
    }
    MultiFigure {
        id,
        title: format!(
            "BRMI vs hand-written DTO facade: bulk fetch ({})",
            network_tag(profile)
        ),
        x_label: "number of files",
        x: xs,
        series: vec![("RMI", rmi), ("DTO facade", dto), ("BRMI", brmi)],
    }
}

/// Every extension experiment, in order.
pub fn all_extension_figures() -> Vec<MultiFigure> {
    let lan = NetworkProfile::lan_1gbps();
    let wireless = NetworkProfile::wireless_54mbps();
    vec![
        implicit_listing_figure("ext1", &lan),
        implicit_listing_figure("ext2", &wireless),
        implicit_traversal_figure("ext3", &lan),
        fine_grained_errors_figure("ext4", &lan),
        dto_facade_figure("ext5", &lan),
        dto_facade_figure("ext6", &wireless),
    ]
}
