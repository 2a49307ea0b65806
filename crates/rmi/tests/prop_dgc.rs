//! Property tests for distributed GC, driven through the public server
//! surface: arbitrary interleavings of exports (marshalled results),
//! renewals, cleans, clock advances and sweeps must preserve the lease
//! accounting invariants and never resurrect a reclaimed export.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use brmi_rmi::{no_such_method, CallCtx, DgcConfig, InArg, OutValue, RemoteObject, RmiServer};
use brmi_transport::clock::{Clock, VirtualClock};
use brmi_wire::{ObjectId, RemoteError, Value};
use proptest::prelude::*;

/// Every `spawn` returns a fresh remote child (which marshalling then
/// exports with a lease).
struct Spawner;

impl RemoteObject for Spawner {
    fn interface_name(&self) -> &'static str {
        "spawner"
    }

    fn invoke(
        &self,
        method: &str,
        _args: &[InArg<'_>],
        _ctx: &CallCtx,
    ) -> Result<OutValue, RemoteError> {
        match method {
            "spawn" => Ok(OutValue::Remote(Arc::new(Spawner))),
            "ping" => Ok(OutValue::Data(Value::I32(1))),
            other => Err(no_such_method("spawner", other)),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Export a fresh child via the marshalling path.
    Spawn,
    /// Renew a subset of known ids (by index) for `secs`.
    Dirty(Vec<u8>, u16),
    /// Release a subset of known ids (by index).
    Clean(Vec<u8>),
    /// Advance the shared clock.
    Advance(u16),
    /// Reclaim expired leases.
    Sweep,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let picks = || proptest::collection::vec(any::<u8>(), 0..4);
    prop_oneof![
        3 => Just(Op::Spawn),
        2 => (picks(), 0u16..120).prop_map(|(p, s)| Op::Dirty(p, s)),
        2 => picks().prop_map(Op::Clean),
        2 => (1u16..40).prop_map(Op::Advance),
        1 => Just(Op::Sweep),
    ]
}

fn pick(known: &[ObjectId], indexes: &[u8]) -> Vec<ObjectId> {
    if known.is_empty() {
        return Vec::new();
    }
    indexes
        .iter()
        .map(|&i| known[i as usize % known.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lease_accounting_invariants(ops in proptest::collection::vec(arb_op(), 0..48)) {
        let server = RmiServer::new();
        let clock = VirtualClock::new();
        let max_lease = Duration::from_secs(60);
        let dgc = server.enable_dgc(
            Arc::clone(&clock) as Arc<dyn Clock>,
            DgcConfig { max_lease },
        );
        let root = server.bind("spawner", Arc::new(Spawner)).unwrap();

        let mut known: Vec<ObjectId> = Vec::new();
        let mut reclaimed: Vec<ObjectId> = Vec::new();

        for op in &ops {
            match op {
                Op::Spawn => {
                    let value = server.dispatch_call(root, "spawn", vec![]).unwrap();
                    let Value::RemoteRef(id) = value else {
                        panic!("spawn must marshal a reference");
                    };
                    prop_assert!(!known.contains(&id), "ids are never reused");
                    prop_assert!(dgc.is_leased(id), "marshalled export is leased");
                    known.push(id);
                }
                Op::Dirty(indexes, secs) => {
                    let ids = pick(&known, indexes);
                    let granted = dgc.dirty(&ids, Duration::from_secs(u64::from(*secs)));
                    prop_assert!(granted <= max_lease, "dirty grants are clamped");
                    for id in &reclaimed {
                        prop_assert!(!dgc.is_leased(*id), "no resurrection by dirty");
                    }
                }
                Op::Clean(indexes) => {
                    for id in dgc.clean(&pick(&known, indexes)) {
                        server.table().unexport(id);
                        prop_assert!(!dgc.is_leased(id));
                        reclaimed.push(id);
                    }
                }
                Op::Advance(secs) => clock.advance(Duration::from_secs(u64::from(*secs))),
                Op::Sweep => {
                    let live_before = dgc.lease_count();
                    let swept = server.dgc_sweep();
                    prop_assert_eq!(dgc.lease_count(), live_before - swept);
                    for id in &known {
                        if !dgc.is_leased(*id) && !reclaimed.contains(id) {
                            reclaimed.push(*id);
                        }
                    }
                }
            }

            // Standing invariants after every operation.
            let stats = dgc.stats();
            prop_assert_eq!(
                dgc.lease_count() as u64,
                stats.granted - stats.cleaned - stats.expired,
                "live = granted − cleaned − expired; stats {:?}", stats
            );
            for id in &reclaimed {
                prop_assert!(
                    server.table().get(*id).is_none(),
                    "reclaimed object must be unexported"
                );
            }
            // A leased id is always still exported (sweep not yet due).
            for id in &known {
                if dgc.is_leased(*id) {
                    prop_assert!(server.table().get(*id).is_some());
                }
            }
            // The pinned root is never leased and always reachable.
            prop_assert!(!dgc.is_leased(root));
            prop_assert!(server.dispatch_call(root, "ping", vec![]).is_ok());
        }

        // Drain: a big advance plus sweep reclaims everything still live.
        clock.advance(Duration::from_secs(61));
        server.dgc_sweep();
        prop_assert_eq!(dgc.lease_count(), 0);
        let stats = dgc.stats();
        prop_assert_eq!(stats.granted, stats.cleaned + stats.expired);
    }
}
