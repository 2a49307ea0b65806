//! The origin half of retry-safe exactly-once *visible* semantics: a
//! bounded per-client reply cache keyed by [`IdemKey`].
//!
//! Clients stamp retryable requests with `(client_id, seq)`; the server
//! remembers each reply and answers a re-sent key with the cached frame
//! instead of re-executing. Transports may therefore re-send keyed frames
//! after a disconnect — the effect executes at most once, and the caller
//! observes it exactly once (or a visible error, never a silent repeat).
//!
//! Bounding comes from two directions:
//!
//! * **Acknowledgement watermark** — every keyed request piggybacks
//!   `acked`, the client's "all replies below this seq were delivered"
//!   watermark, and the cache drops everything it covers. This is the
//!   common path: a well-behaved client releases its entries one round
//!   trip after they are consumed.
//! * **LRU capacity** — completed replies beyond
//!   [`ReplyCacheConfig::capacity`] are evicted oldest-first across all
//!   clients. A retry that asks for an evicted reply gets a *visible*
//!   protocol error — the one thing the cache will never do is run the
//!   call a second time.
//!
//! Concurrent duplicates (a retry racing the original execution) block on
//! the in-flight slot and receive the original reply when it completes.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

use brmi_obs::{Counter, MetricsSnapshot, Registry, Snapshot};
use brmi_wire::invocation::ErrorEnvelope;
use brmi_wire::protocol::{Frame, IdemKey};
use brmi_wire::{RemoteError, RemoteErrorKind};

/// Sizing knobs for a [`ReplyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyCacheConfig {
    /// Completed replies retained across all clients before LRU eviction.
    pub capacity: usize,
}

impl Default for ReplyCacheConfig {
    fn default() -> Self {
        // Generous for tests and small deployments; a relay fronting many
        // clients should still ack fast enough that the watermark, not the
        // LRU, does almost all of the releasing.
        ReplyCacheConfig { capacity: 4096 }
    }
}

/// What [`ReplyCache::begin`] decided about one keyed request.
#[derive(Debug)]
pub enum Begin {
    /// First sighting: execute the request, then hand the reply to
    /// [`ReplyCache::complete`].
    Execute,
    /// The key was seen before (or is unanswerable): send this frame as
    /// the reply without executing anything.
    Replay(Frame),
}

#[derive(Debug)]
enum Slot {
    /// The original request is executing right now; duplicates wait.
    InFlight,
    /// The reply, retained until acked or evicted.
    Done(Frame),
}

#[derive(Debug, Default)]
struct ClientEntry {
    /// Every seq below this was delivered to the client; replies are gone.
    acked: u64,
    /// Every seq below this *may* have been LRU-evicted: an absent key
    /// under this floor is unanswerable (visible error), because "absent"
    /// no longer implies "never executed".
    evicted_floor: u64,
    slots: BTreeMap<u64, Slot>,
}

#[derive(Debug, Default)]
struct CacheState {
    clients: HashMap<u64, ClientEntry>,
    /// Completion order of `Done` slots, for LRU eviction. Entries whose
    /// slot was already released by the ack watermark are skipped lazily,
    /// and compacted away before they outnumber the live ones by more
    /// than the capacity (see [`ReplyCache::complete`]).
    order: VecDeque<(u64, u64)>,
    done: usize,
}

impl CacheState {
    /// True while `(client, seq)` still holds a completed reply — false
    /// once the ack watermark or the LRU released it.
    fn is_done(&self, client: u64, seq: u64) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|entry| matches!(entry.slots.get(&seq), Some(Slot::Done(_))))
    }
}

/// Bounded per-client reply cache — see the [module docs](self).
#[derive(Debug)]
pub struct ReplyCache {
    config: ReplyCacheConfig,
    state: Mutex<CacheState>,
    completed: Condvar,
    executions: Counter,
    replays: Counter,
    evictions: Counter,
}

impl Default for ReplyCache {
    fn default() -> Self {
        ReplyCache::new(ReplyCacheConfig::default())
    }
}

impl Snapshot for ReplyCache {
    fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.register_metrics(&registry);
        registry.snapshot()
    }
}

impl ReplyCache {
    /// Creates an empty cache.
    pub fn new(config: ReplyCacheConfig) -> Self {
        ReplyCache {
            config,
            state: Mutex::new(CacheState::default()),
            completed: Condvar::new(),
            executions: Counter::default(),
            replays: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// Keyed requests that executed (first sightings).
    pub fn executions(&self) -> u64 {
        self.executions.value()
    }

    /// Keyed requests answered without executing (cached replies and
    /// unanswerable-key errors).
    pub fn replays(&self) -> u64 {
        self.replays.value()
    }

    /// Completed replies dropped by the LRU bound (not by acks).
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
    }

    /// Registers the cache's metric cells with `registry` under the
    /// `replay_*` families (unified naming: first-sighting executions are
    /// `replay_executions`, deduplicated answers are `replay_replays`,
    /// LRU-evicted replies are `replay_drops`).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("replay_executions", &[], &self.executions);
        registry.register_counter("replay_replays", &[], &self.replays);
        registry.register_counter("replay_drops", &[], &self.evictions);
    }

    /// Completed replies currently retained.
    pub fn retained(&self) -> usize {
        self.state.lock().expect("reply cache poisoned").done
    }

    /// Classifies one keyed request. Also applies the key's piggybacked
    /// ack watermark, releasing every cached reply it covers.
    ///
    /// On [`Begin::Execute`] the caller *must* follow up with
    /// [`ReplyCache::complete`] (use [`ReplyCache::execute_guarded`] to
    /// get that for free), or duplicate requests will wait forever.
    pub fn begin(&self, key: IdemKey) -> Begin {
        let mut state = self.state.lock().expect("reply cache poisoned");
        let released = {
            let entry = state.clients.entry(key.client_id).or_default();
            if key.acked > entry.acked {
                entry.acked = key.acked;
                let kept = entry.slots.split_off(&key.acked);
                let released = entry
                    .slots
                    .values()
                    .filter(|slot| matches!(slot, Slot::Done(_)))
                    .count();
                entry.slots = kept;
                released
            } else {
                0
            }
        };
        state.done -= released;
        loop {
            let entry = state.clients.entry(key.client_id).or_default();
            if key.seq < entry.acked {
                self.replays.inc();
                return Begin::Replay(unanswerable(
                    key,
                    RemoteErrorKind::Protocol,
                    "request seq is below the client's own ack watermark",
                ));
            }
            match entry.slots.get(&key.seq) {
                Some(Slot::Done(reply)) => {
                    let reply = reply.clone();
                    self.replays.inc();
                    return Begin::Replay(reply);
                }
                Some(Slot::InFlight) => {
                    // A retry raced the original execution: wait for the
                    // one true reply rather than executing twice.
                    state = self.completed.wait(state).expect("reply cache poisoned");
                }
                None if key.seq < entry.evicted_floor => {
                    // Absent below the eviction floor: the reply may have
                    // existed and been evicted, so re-executing could run
                    // the call twice. Fail visibly instead, with the
                    // dedicated `reply-evicted` kind so callers can react
                    // (grow the cache, ack faster) without string matching.
                    self.replays.inc();
                    return Begin::Replay(unanswerable(
                        key,
                        RemoteErrorKind::ReplyEvicted,
                        "reply was evicted from the origin's reply cache before the client acked it",
                    ));
                }
                None => {
                    entry.slots.insert(key.seq, Slot::InFlight);
                    self.executions.inc();
                    return Begin::Execute;
                }
            }
        }
    }

    /// Records the reply for a key [`begin`](ReplyCache::begin) classified
    /// as [`Begin::Execute`], wakes duplicate waiters, and applies the LRU
    /// bound.
    pub fn complete(&self, key: IdemKey, reply: Frame) {
        let mut state = self.state.lock().expect("reply cache poisoned");
        let stored = {
            let entry = state.clients.entry(key.client_id).or_default();
            // The watermark may have advanced past this seq while it
            // executed (it was delivered via a duplicate and acked):
            // nothing to retain.
            if key.seq < entry.acked {
                entry.slots.remove(&key.seq);
                false
            } else if let Some(slot) = entry.slots.get_mut(&key.seq) {
                *slot = Slot::Done(reply);
                true
            } else {
                false
            }
        };
        if stored {
            state.done += 1;
            state.order.push_back((key.client_id, key.seq));
            while state.done > self.config.capacity {
                let Some((client, seq)) = state.order.pop_front() else {
                    break;
                };
                // Acks may have released this slot already — the order
                // queue is lazy, so just skip stale pairs.
                if !state.is_done(client, seq) {
                    continue;
                }
                let victim = state.clients.get_mut(&client).expect("done slot's client");
                victim.slots.remove(&seq);
                victim.evicted_floor = victim.evicted_floor.max(seq + 1);
                state.done -= 1;
                self.evictions.inc();
            }
            // A well-behaved client acks every reply, so the loop above
            // never runs and nothing else pops the queue: drop the stale
            // pairs whenever they outnumber what the LRU may retain. Live
            // pairs keep their relative order, so eviction order does not
            // change, and the sweep is paid for by the `capacity` pushes
            // it takes to get here again.
            if state.order.len() > 2 * self.config.capacity {
                let mut order = std::mem::take(&mut state.order);
                order.retain(|&(client, seq)| state.is_done(client, seq));
                state.order = order;
            }
        }
        drop(state);
        self.completed.notify_all();
    }

    /// Exports every client's retained state — ack watermark, eviction
    /// floor, and completed replies — for a durable snapshot. Clients are
    /// sorted by id and replies by seq, so the export is deterministic.
    /// In-flight slots are skipped (the journal layer quiesces keyed
    /// execution before snapshotting, so none should exist).
    pub fn export_state(&self) -> Vec<ClientReplayState> {
        let state = self.state.lock().expect("reply cache poisoned");
        let mut clients: Vec<ClientReplayState> = state
            .clients
            .iter()
            .map(|(&client_id, entry)| ClientReplayState {
                client_id,
                acked: entry.acked,
                evicted_floor: entry.evicted_floor,
                replies: entry
                    .slots
                    .iter()
                    .filter_map(|(&seq, slot)| match slot {
                        Slot::Done(reply) => Some((seq, reply.clone())),
                        Slot::InFlight => None,
                    })
                    .collect(),
            })
            .collect();
        clients.sort_by_key(|client| client.client_id);
        clients
    }

    /// Restores state captured by [`ReplyCache::export_state`] into this
    /// (freshly created) cache. Replies re-enter the LRU order in export
    /// order — client id then seq — which is deterministic across runs.
    pub fn import_state(&self, clients: Vec<ClientReplayState>) {
        let mut state = self.state.lock().expect("reply cache poisoned");
        for client in clients {
            let entry = state.clients.entry(client.client_id).or_default();
            entry.acked = entry.acked.max(client.acked);
            entry.evicted_floor = entry.evicted_floor.max(client.evicted_floor);
            let mut restored = Vec::new();
            for (seq, reply) in client.replies {
                if seq < entry.acked {
                    continue;
                }
                if entry.slots.insert(seq, Slot::Done(reply)).is_none() {
                    restored.push((client.client_id, seq));
                }
            }
            state.done += restored.len();
            state.order.extend(restored);
        }
    }

    /// Runs `execute` under the cache: replays when the key was seen,
    /// executes and records otherwise. The in-flight slot is completed
    /// with a protocol error even if `execute` panics, so duplicate
    /// waiters never hang.
    pub fn execute_guarded(&self, key: IdemKey, execute: impl FnOnce() -> Frame) -> Frame {
        match self.begin(key) {
            Begin::Replay(reply) => reply,
            Begin::Execute => {
                let guard = CompleteGuard { cache: self, key };
                let reply = execute();
                guard.finish(reply.clone());
                reply
            }
        }
    }
}

/// One client's retained reply-cache state, as captured into (and
/// restored from) a durable snapshot — see [`ReplyCache::export_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClientReplayState {
    /// The client the state belongs to.
    pub client_id: u64,
    /// Every seq below this was delivered and released.
    pub acked: u64,
    /// Every seq below this may have been LRU-evicted.
    pub evicted_floor: u64,
    /// Retained completed replies, ascending by seq.
    pub replies: Vec<(u64, Frame)>,
}

/// Completes the in-flight slot exactly once, with a protocol error if the
/// execution unwound before producing a reply.
struct CompleteGuard<'a> {
    cache: &'a ReplyCache,
    key: IdemKey,
}

impl CompleteGuard<'_> {
    fn finish(self, reply: Frame) {
        let cache = self.cache;
        let key = self.key;
        std::mem::forget(self);
        cache.complete(key, reply);
    }
}

impl Drop for CompleteGuard<'_> {
    fn drop(&mut self) {
        let err = RemoteError::new(
            RemoteErrorKind::Protocol,
            "keyed request execution did not complete",
        );
        self.cache
            .complete(self.key, Frame::Error(ErrorEnvelope::from(&err)));
    }
}

fn unanswerable(key: IdemKey, kind: RemoteErrorKind, why: &str) -> Frame {
    let err = RemoteError::new(
        kind,
        format!(
            "keyed request (client {}, seq {}) cannot be answered: {why}",
            key.client_id, key.seq
        ),
    );
    Frame::Error(ErrorEnvelope::from(&err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_wire::Value;

    fn key(client_id: u64, seq: u64, acked: u64) -> IdemKey {
        IdemKey {
            client_id,
            seq,
            acked,
        }
    }

    fn reply(n: i64) -> Frame {
        Frame::Return(Value::I64(n))
    }

    #[test]
    fn first_sighting_executes_then_replays() {
        let cache = ReplyCache::default();
        let k = key(1, 0, 0);
        assert!(matches!(cache.begin(k), Begin::Execute));
        cache.complete(k, reply(7));
        match cache.begin(k) {
            Begin::Replay(frame) => assert_eq!(frame, reply(7)),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(cache.executions(), 1);
        assert_eq!(cache.replays(), 1);
    }

    #[test]
    fn error_replies_are_cached_too() {
        let cache = ReplyCache::default();
        let k = key(1, 0, 0);
        assert!(matches!(cache.begin(k), Begin::Execute));
        let err = Frame::Error(ErrorEnvelope::from(&RemoteError::application(
            "OverdraftException",
            "limit",
        )));
        cache.complete(k, err.clone());
        match cache.begin(k) {
            Begin::Replay(frame) => assert_eq!(frame, err),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn ack_watermark_releases_earlier_replies() {
        let cache = ReplyCache::default();
        for seq in 0..4 {
            let k = key(1, seq, 0);
            assert!(matches!(cache.begin(k), Begin::Execute));
            cache.complete(k, reply(seq as i64));
        }
        assert_eq!(cache.retained(), 4);
        // seq 4 arrives acking everything below 3.
        assert!(matches!(cache.begin(key(1, 4, 3)), Begin::Execute));
        cache.complete(key(1, 4, 3), reply(4));
        assert_eq!(cache.retained(), 2, "seqs 0..3 released, 3 and 4 kept");
        // Asking again for an acked seq is a protocol violation, answered
        // visibly without executing.
        match cache.begin(key(1, 1, 3)) {
            Begin::Replay(Frame::Error(env)) => assert_eq!(env.kind, "protocol"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // Unacked seq 3 still replays fine.
        match cache.begin(key(1, 3, 3)) {
            Begin::Replay(frame) => assert_eq!(frame, reply(3)),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn lru_eviction_is_visible_never_a_reexecution() {
        let cache = ReplyCache::new(ReplyCacheConfig { capacity: 2 });
        for seq in 0..3 {
            let k = key(1, seq, 0);
            assert!(matches!(cache.begin(k), Begin::Execute));
            cache.complete(k, reply(seq as i64));
        }
        assert_eq!(cache.retained(), 2);
        assert_eq!(cache.evictions(), 1);
        // seq 0 was evicted: retrying it fails visibly, with the
        // dedicated wire kind and a message naming the exact key.
        match cache.begin(key(1, 0, 0)) {
            Begin::Replay(Frame::Error(env)) => {
                assert_eq!(env.kind, RemoteErrorKind::ReplyEvicted.as_str());
                assert!(env.message.contains("evicted"));
            }
            other => panic!("expected eviction error, got {other:?}"),
        }
        // Survivors still replay.
        match cache.begin(key(1, 2, 0)) {
            Begin::Replay(frame) => assert_eq!(frame, reply(2)),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(cache.executions(), 3, "nothing ever executed twice");
    }

    #[test]
    fn acked_completions_do_not_grow_the_order_queue() {
        const CAPACITY: usize = 64;
        let cache = ReplyCache::new(ReplyCacheConfig { capacity: CAPACITY });
        // The well-behaved client: every request acks all earlier ones,
        // so the LRU never has to evict — and never pops the queue.
        for seq in 0..50_000 {
            let k = key(1, seq, seq);
            assert!(matches!(cache.begin(k), Begin::Execute));
            cache.complete(k, reply(seq as i64));
        }
        assert_eq!(cache.retained(), 1);
        assert_eq!(cache.evictions(), 0);
        let queued = cache.state.lock().unwrap().order.len();
        assert!(queued <= 2 * CAPACITY, "order queue holds {queued} pairs");
    }

    #[test]
    fn lru_order_survives_queue_compaction() {
        const CAPACITY: usize = 4;
        let cache = ReplyCache::new(ReplyCacheConfig { capacity: CAPACITY });
        // Client 2 parks one early reply and never acks it: it is the
        // oldest completion from here on.
        assert!(matches!(cache.begin(key(2, 0, 0)), Begin::Execute));
        cache.complete(key(2, 0, 0), reply(-1));
        // Client 1 acks as it goes, leaving stale pairs behind until the
        // queue is compacted (several times over).
        for seq in 0..100 {
            let k = key(1, seq, seq);
            assert!(matches!(cache.begin(k), Begin::Execute));
            cache.complete(k, reply(seq as i64));
        }
        assert_eq!(cache.evictions(), 0);
        assert!(cache.state.lock().unwrap().order.len() <= 2 * CAPACITY);
        // Client 3 fills the cache without acking: eviction must still
        // start with client 2's reply, then go in completion order.
        for seq in 0..CAPACITY as u64 {
            let k = key(3, seq, 0);
            assert!(matches!(cache.begin(k), Begin::Execute));
            cache.complete(k, reply(seq as i64));
        }
        // Retained before: client 2's, client 1's last, then 4 more.
        assert_eq!(cache.evictions(), 2);
        match cache.begin(key(2, 0, 0)) {
            Begin::Replay(Frame::Error(env)) => assert_eq!(env.kind, "reply-evicted"),
            other => panic!("oldest completion must go first, got {other:?}"),
        }
        match cache.begin(key(1, 99, 99)) {
            Begin::Replay(Frame::Error(env)) => assert_eq!(env.kind, "reply-evicted"),
            other => panic!("second-oldest completion must go next, got {other:?}"),
        }
        for seq in 0..CAPACITY as u64 {
            match cache.begin(key(3, seq, 0)) {
                Begin::Replay(frame) => assert_eq!(frame, reply(seq as i64)),
                other => panic!("newest completions must survive, got {other:?}"),
            }
        }
    }

    #[test]
    fn eviction_error_names_the_evicted_key_on_the_wire() {
        let cache = ReplyCache::new(ReplyCacheConfig { capacity: 1 });
        for seq in 0..2 {
            let k = key(7, seq, 0);
            assert!(matches!(cache.begin(k), Begin::Execute));
            cache.complete(k, reply(seq as i64));
        }
        // seq 0 was evicted before client 7 ever acked it.
        match cache.begin(key(7, 0, 0)) {
            Begin::Replay(Frame::Error(env)) => {
                assert_eq!(env.kind, "reply-evicted");
                assert_eq!(
                    RemoteErrorKind::from_wire(&env.kind),
                    Some(RemoteErrorKind::ReplyEvicted),
                    "wire name must round-trip"
                );
                assert!(
                    env.message.contains("client 7") && env.message.contains("seq 0"),
                    "message must name the evicted key, got: {}",
                    env.message
                );
            }
            other => panic!("expected eviction error, got {other:?}"),
        }
        // The ack-watermark path keeps its protocol kind: only genuine
        // evictions wear the new name.
        assert!(matches!(cache.begin(key(7, 5, 3)), Begin::Execute));
        cache.complete(key(7, 5, 3), reply(5));
        match cache.begin(key(7, 2, 3)) {
            Begin::Replay(Frame::Error(env)) => assert_eq!(env.kind, "protocol"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn state_export_import_round_trips() {
        let cache = ReplyCache::new(ReplyCacheConfig { capacity: 3 });
        for seq in 0..4 {
            let k = key(1, seq, 0);
            assert!(matches!(cache.begin(k), Begin::Execute));
            cache.complete(k, reply(seq as i64));
        }
        let k = key(2, 0, 0);
        assert!(matches!(cache.begin(k), Begin::Execute));
        cache.complete(k, reply(100));

        let exported = cache.export_state();
        let restored = ReplyCache::new(ReplyCacheConfig { capacity: 3 });
        restored.import_state(exported.clone());

        assert_eq!(restored.retained(), cache.retained());
        assert_eq!(restored.export_state(), exported, "round trip is exact");
        // Evicted floors survive: the restored cache still refuses the
        // evicted key instead of re-executing.
        match restored.begin(key(1, 0, 0)) {
            Begin::Replay(Frame::Error(env)) => assert_eq!(env.kind, "reply-evicted"),
            other => panic!("expected eviction error, got {other:?}"),
        }
        // And retained replies still replay.
        match restored.begin(key(1, 3, 0)) {
            Begin::Replay(frame) => assert_eq!(frame, reply(3)),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(
            restored.executions(),
            0,
            "imports never count as executions"
        );
    }

    #[test]
    fn clients_are_independent() {
        let cache = ReplyCache::default();
        let a = key(1, 0, 0);
        let b = key(2, 0, 0);
        assert!(matches!(cache.begin(a), Begin::Execute));
        assert!(matches!(cache.begin(b), Begin::Execute));
        cache.complete(a, reply(1));
        cache.complete(b, reply(2));
        match cache.begin(a) {
            Begin::Replay(frame) => assert_eq!(frame, reply(1)),
            other => panic!("expected replay, got {other:?}"),
        }
        match cache.begin(b) {
            Begin::Replay(frame) => assert_eq!(frame, reply(2)),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_duplicate_waits_for_the_original() {
        let cache = std::sync::Arc::new(ReplyCache::default());
        let k = key(1, 0, 0);
        assert!(matches!(cache.begin(k), Begin::Execute));
        let waiter = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin(k) {
                Begin::Replay(frame) => frame,
                other => panic!("duplicate must not execute, got {other:?}"),
            })
        };
        // Give the duplicate time to park on the in-flight slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.complete(k, reply(42));
        assert_eq!(waiter.join().unwrap(), reply(42));
        assert_eq!(cache.executions(), 1);
    }

    #[test]
    fn guarded_execution_completes_on_panic() {
        let cache = std::sync::Arc::new(ReplyCache::default());
        let k = key(1, 0, 0);
        let panicked = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || cache.execute_guarded(k, || panic!("application exploded")))
        };
        assert!(panicked.join().is_err());
        // The slot still completed (with an error), so a retry gets a
        // visible answer instead of hanging.
        match cache.begin(k) {
            Begin::Replay(Frame::Error(env)) => assert_eq!(env.kind, "protocol"),
            other => panic!("expected completed error slot, got {other:?}"),
        }
    }

    #[test]
    fn guarded_execution_replays_without_running_twice() {
        let cache = ReplyCache::default();
        let k = key(1, 0, 0);
        let mut runs = 0;
        let first = cache.execute_guarded(k, || {
            runs += 1;
            reply(9)
        });
        let second = cache.execute_guarded(k, || {
            runs += 1;
            reply(10)
        });
        assert_eq!(first, reply(9));
        assert_eq!(second, reply(9), "second call replayed the first reply");
        assert_eq!(runs, 1);
    }
}
