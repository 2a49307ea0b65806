//! The export table: object ids ↔ live remote objects.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use brmi_wire::ObjectId;
use parking_lot::RwLock;

use crate::object::RemoteObject;

/// Number of independent lock shards. Power of two so the shard index is a
/// mask of the id's low bits; 64 keeps the probability of two concurrent
/// dispatch threads colliding on one lock low even on wide machines.
const SHARD_COUNT: u64 = 64;

/// Maps exported [`ObjectId`]s to live objects.
///
/// Ids are never reused within one table, so a stale reference can only miss,
/// never alias a different object. Id `0` is reserved for the registry and is
/// installed by the server, not by [`ObjectTable::export`].
///
/// The table is sharded 64 ways by the id's low bits: every call the server
/// dispatches performs at least one lookup here, so a single `RwLock` around
/// one map would serialize writer traffic (exports of marshalled results,
/// DGC unexports) against the whole dispatch fan-out. Sequential ids spread
/// round-robin across shards, giving a uniform key distribution by
/// construction.
#[derive(Debug)]
pub struct ObjectTable {
    next_id: AtomicU64,
    shards: [RwLock<HashMap<u64, Arc<dyn RemoteObject>>>; SHARD_COUNT as usize],
}

impl std::fmt::Debug for dyn RemoteObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RemoteObject({})", self.interface_name())
    }
}

impl Default for ObjectTable {
    fn default() -> Self {
        ObjectTable {
            next_id: AtomicU64::new(1),
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable::default()
    }

    fn shard(&self, id: u64) -> &RwLock<HashMap<u64, Arc<dyn RemoteObject>>> {
        &self.shards[(id & (SHARD_COUNT - 1)) as usize]
    }

    /// Exports `object` under a fresh id.
    ///
    /// Exporting the same object twice yields two ids, as in Java RMI —
    /// export-level deduplication is exactly what RMI does *not* do for
    /// stubs crossing the wire, and the resulting cost is part of what the
    /// paper measures.
    pub fn export(&self, object: Arc<dyn RemoteObject>) -> ObjectId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shard(id).write().insert(id, object);
        ObjectId(id)
    }

    /// Installs an object at a specific id, replacing any previous occupant.
    /// Used by the server to place the registry at [`ObjectId::REGISTRY`].
    pub fn install(&self, id: ObjectId, object: Arc<dyn RemoteObject>) {
        self.shard(id.0).write().insert(id.0, object);
    }

    /// The id the next [`ObjectTable::export`] will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Advances the id allocator so no future export is assigned an id
    /// below `next_id`. Used by durable recovery: a restarted server must
    /// not hand out ids that references recovered from the journal (or
    /// still held by clients) already name. Never moves the allocator
    /// backwards.
    pub fn reserve_through(&self, next_id: u64) {
        self.next_id.fetch_max(next_id, Ordering::Relaxed);
    }

    /// Looks up a live object.
    pub fn get(&self, id: ObjectId) -> Option<Arc<dyn RemoteObject>> {
        self.shard(id.0).read().get(&id.0).cloned()
    }

    /// Removes an object from the table. Returns true when it was present.
    pub fn unexport(&self, id: ObjectId) -> bool {
        self.shard(id.0).write().remove(&id.0).is_some()
    }

    /// Number of exported objects (including the registry once installed).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// True when nothing is exported.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.read().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{no_such_method, CallCtx, InArg, OutValue};
    use brmi_wire::RemoteError;
    use std::any::Any;

    struct Dummy(&'static str);

    impl RemoteObject for Dummy {
        fn interface_name(&self) -> &'static str {
            self.0
        }

        fn invoke(
            &self,
            method: &str,
            _args: Vec<InArg>,
            _ctx: &CallCtx,
        ) -> Result<OutValue, RemoteError> {
            Err(no_such_method(self.0, method))
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn export_assigns_distinct_increasing_ids() {
        let table = ObjectTable::new();
        let a = table.export(Arc::new(Dummy("a")));
        let b = table.export(Arc::new(Dummy("b")));
        assert_ne!(a, b);
        assert!(b > a);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn get_returns_the_exported_object() {
        let table = ObjectTable::new();
        let obj: Arc<dyn RemoteObject> = Arc::new(Dummy("x"));
        let id = table.export(Arc::clone(&obj));
        let found = table.get(id).unwrap();
        assert!(Arc::ptr_eq(&found, &obj));
    }

    #[test]
    fn get_missing_returns_none() {
        let table = ObjectTable::new();
        assert!(table.get(ObjectId(999)).is_none());
    }

    #[test]
    fn unexport_removes_and_ids_are_not_reused() {
        let table = ObjectTable::new();
        let id = table.export(Arc::new(Dummy("x")));
        assert!(table.unexport(id));
        assert!(!table.unexport(id));
        assert!(table.get(id).is_none());
        let next = table.export(Arc::new(Dummy("y")));
        assert!(next > id, "ids must not be reused");
    }

    #[test]
    fn exporting_same_object_twice_gives_two_ids() {
        let table = ObjectTable::new();
        let obj: Arc<dyn RemoteObject> = Arc::new(Dummy("x"));
        let a = table.export(Arc::clone(&obj));
        let b = table.export(obj);
        assert_ne!(a, b);
    }

    #[test]
    fn install_places_at_fixed_id() {
        let table = ObjectTable::new();
        table.install(ObjectId::REGISTRY, Arc::new(Dummy("registry")));
        assert!(table.get(ObjectId::REGISTRY).is_some());
        // A later export never collides with the registry slot.
        let id = table.export(Arc::new(Dummy("x")));
        assert_ne!(id, ObjectId::REGISTRY);
    }

    #[test]
    fn empty_table_reports_empty() {
        let table = ObjectTable::new();
        assert!(table.is_empty());
        table.export(Arc::new(Dummy("x")));
        assert!(!table.is_empty());
    }

    #[test]
    fn objects_spread_across_shards_stay_reachable() {
        let table = ObjectTable::new();
        // More objects than shards, so every shard holds several.
        let ids: Vec<ObjectId> = (0..256)
            .map(|_| table.export(Arc::new(Dummy("x"))))
            .collect();
        assert_eq!(table.len(), 256);
        for id in &ids {
            assert!(table.get(*id).is_some());
        }
        for id in &ids[..128] {
            assert!(table.unexport(*id));
        }
        assert_eq!(table.len(), 128);
        for id in &ids[128..] {
            assert!(table.get(*id).is_some());
        }
    }

    #[test]
    fn concurrent_exports_get_unique_ids() {
        let table = Arc::new(ObjectTable::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| table.export(Arc::new(Dummy("t"))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<ObjectId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
    }
}
