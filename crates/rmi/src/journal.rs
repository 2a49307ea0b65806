//! The origin's durability layer: journaling server-side state changes
//! into a [`brmi_durable::Log`] so a crashed origin can restart
//! mid-workload without breaking exactly-once visible semantics.
//!
//! ## What is journaled
//!
//! * **Keyed executions** ([`JournalRecord::Executed`]) — after a keyed
//!   request executes and *before* its reply is released, the origin
//!   appends `(key, inner request frame, reply)` and commits. Recovery
//!   re-executes the inner frame (rebuilding application state) and seeds
//!   the reply cache with the journaled reply, so a client retrying
//!   through the outage replays the original answer — never a second
//!   execution. The journaled frame is the bare request the key named
//!   (a [`Frame::Call`] / [`Frame::BatchCall`] whose own `key` is `None`),
//!   so replay cannot recurse into the keyed path.
//! * **Registry mutations** (`Bind`/`Rebind`/`Unbind`) — applied as
//!   idempotent upserts on replay.
//! * **DGC lease events** (`LeaseGranted`/`LeaseRenewed`/`LeaseCleaned`/
//!   `LeaseExpired`) — a restarted origin resumes leases instead of
//!   orphaning or prematurely collecting marshalled exports.
//!
//! Mutations performed *inside* a keyed execution (a bind dispatched
//! through a keyed call, a lease granted while marshalling its result)
//! are suppressed: the `Executed` record already covers them, because
//! replay re-executes the request.
//!
//! ## Snapshots and truncation
//!
//! Every [`DurableOptions::snapshot_every`] executions, the dispatch
//! thread whose execution crosses the cadence quiesces keyed dispatch (a
//! write acquisition of the quiesce lock all keyed executions hold for
//! read) just long enough to capture the server's state — reply cache
//! (already shrunk by client ack watermarks), registry, leases, export-id
//! horizon, registered [`DurableState`]s — together with the LSN it is
//! the state *of* (the floor), and to seal the active log segment at that
//! floor ([`Log::seal_segment`]). It then hands the capture to the
//! journal's writer thread and releases its reply. The writer encodes the
//! state and calls [`Log::write_snapshot`], which writes, fsyncs and
//! renames the file beside the running log and garbage-collects every
//! fully covered segment; executions journaled meanwhile sit above the
//! floor and replay over it. Acked replies are excluded by construction,
//! so client acks are what ultimately drive segment reclamation.
//!
//! At most one cadence snapshot is in progress. A crossing while another
//! thread captures skips (that capture resets the count); a crossing while
//! the writer still has the previous snapshot waits for it and checks the
//! count again. So which snapshots exist, at which floors, and where the
//! segments are cut depend on the execution sequence alone, never on how
//! fast the disk writes. [`Journal::wait_snapshots`] blocks until the
//! writer is idle, and dropping the journal lets the writer finish the
//! snapshot in hand and joins it, so a journal never outlives its writer.
//! [`Journal::snapshot_now`] captures and writes on the calling thread.
//!
//! ## Known limitations (documented, tested around)
//!
//! * Unkeyed calls are not journaled: only keyed traffic survives a
//!   crash, exactly mirroring which traffic is retry-safe on the wire.
//! * A chained batch session (`keep_session`) open at the crash does not
//!   survive; the client's next use of it fails visibly.
//! * Replay re-executes requests in journal order. Keyed plain calls
//!   that returned marshalled exports may renumber `ObjectId`s across
//!   recovery if executions interleaved with other exports; the export-id
//!   horizon in the snapshot guarantees freshness (no aliasing), not
//!   stable numbering.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use brmi_durable::{Log, LogConfig, LogError, LogStats};
use brmi_obs::{Counter, Histogram};
use brmi_transport::slot::OneShot;
use brmi_wire::codec::{Decoder, Encoder, WireCodec};
use brmi_wire::protocol::{Frame, IdemKey};
use brmi_wire::{ObjectId, Value, WireError};
use parking_lot::{Mutex, RwLock};

use crate::replay::ClientReplayState;

/// State an application registers with
/// [`RmiServer::register_durable_state`](crate::RmiServer::register_durable_state)
/// so it rides the journal's compacted snapshots.
///
/// Between snapshots the application state is rebuilt by re-executing
/// journaled keyed requests, so `capture`/`restore` only need to round-trip
/// the state as of a quiesced moment — they are never called concurrently
/// with keyed execution.
pub trait DurableState: Send + Sync {
    /// Serializes the current state into a [`Value`].
    fn capture(&self) -> Value;
    /// Replaces the current state with a previously captured one.
    fn restore(&self, state: &Value);
}

/// Tuning for [`RmiServer::attach_durable`](crate::RmiServer::attach_durable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Passed through to the underlying [`Log`].
    pub log: LogConfig,
    /// Capture a compacted snapshot after this many keyed executions
    /// (`0` disables automatic snapshots; explicit
    /// [`Journal::snapshot_now`] still works). The execution that crosses
    /// the count pauses keyed dispatch for the capture; the journal's
    /// writer thread writes the file.
    pub snapshot_every: u64,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            log: LogConfig::default(),
            snapshot_every: 256,
        }
    }
}

/// What [`RmiServer::attach_durable`](crate::RmiServer::attach_durable)
/// found and rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableReport {
    /// A compacted snapshot was restored.
    pub restored_snapshot: bool,
    /// Keyed executions replayed from the journal (each re-executed and
    /// its journaled reply seeded into the reply cache).
    pub replayed_executions: u64,
    /// Registry and lease records re-applied.
    pub replayed_events: u64,
    /// Torn/corrupt records truncated at the recovery scan.
    pub truncated_records: u64,
}

thread_local! {
    static SUPPRESS_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Encode buffer for [`Journal::executed`], reused across a dispatch
    /// thread's requests.
    static RECORD_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// True while the current thread is inside a suppressed scope — a keyed
/// execution or a recovery replay, where the `Executed` record (or the
/// replay itself) already accounts for any nested mutation.
pub(crate) fn is_suppressed() -> bool {
    SUPPRESS_DEPTH.with(|depth| depth.get() > 0)
}

/// Runs `f` with journaling of nested registry/DGC mutations suppressed.
pub(crate) fn with_suppressed<R>(f: impl FnOnce() -> R) -> R {
    SUPPRESS_DEPTH.with(|depth| depth.set(depth.get() + 1));
    let result = f();
    SUPPRESS_DEPTH.with(|depth| depth.set(depth.get() - 1));
    result
}

/// One durable record. Encoded with the ordinary wire codec — no new
/// frame tags; frames inside records reuse [`Frame`]'s own encoding.
// Records exist as values only while recovery decodes them: nothing to box for.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A keyed request executed: the inner (unkeyed) request frame and
    /// the reply that was released for it.
    Executed {
        /// The idempotency key the reply is cached under.
        key: IdemKey,
        /// The bare request the key named: a [`Frame::Call`] or
        /// [`Frame::BatchCall`] with `key: None`.
        request: Frame,
        /// The reply frame released to the client.
        reply: Frame,
    },
    /// `bind(name, id)` succeeded.
    Bind {
        /// Registry name.
        name: String,
        /// Bound object.
        id: ObjectId,
    },
    /// `rebind(name, id)` ran.
    Rebind {
        /// Registry name.
        name: String,
        /// Bound object.
        id: ObjectId,
    },
    /// `unbind(name)` succeeded.
    Unbind {
        /// Registry name.
        name: String,
    },
    /// A marshalled export was granted a lease.
    LeaseGranted {
        /// The leased export.
        id: ObjectId,
        /// Absolute expiry, nanoseconds on the server clock.
        expires_nanos: u64,
    },
    /// A `dirty` renewed a lease.
    LeaseRenewed {
        /// The leased export.
        id: ObjectId,
        /// Absolute expiry, nanoseconds on the server clock.
        expires_nanos: u64,
    },
    /// A `clean` released a lease.
    LeaseCleaned {
        /// The released export.
        id: ObjectId,
    },
    /// A lease expired and its object was unexported.
    LeaseExpired {
        /// The reclaimed export.
        id: ObjectId,
    },
}

const TAG_EXECUTED: u8 = 1;
const TAG_BIND: u8 = 2;
const TAG_REBIND: u8 = 3;
const TAG_UNBIND: u8 = 4;
const TAG_LEASE_GRANTED: u8 = 5;
const TAG_LEASE_RENEWED: u8 = 6;
const TAG_LEASE_CLEANED: u8 = 7;
const TAG_LEASE_EXPIRED: u8 = 8;

/// The encoding of [`JournalRecord::Executed`], from borrowed parts — the
/// hot path journals without building (or cloning into) a record.
fn encode_executed(enc: &mut Encoder, key: &IdemKey, request: &Frame, reply: &Frame) {
    enc.put_u8(TAG_EXECUTED);
    key.encode(enc);
    request.encode(enc);
    reply.encode(enc);
}

impl WireCodec for JournalRecord {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            JournalRecord::Executed {
                key,
                request,
                reply,
            } => encode_executed(enc, key, request, reply),
            JournalRecord::Bind { name, id } => {
                enc.put_u8(TAG_BIND);
                enc.put_str(name);
                enc.put_varint(id.0);
            }
            JournalRecord::Rebind { name, id } => {
                enc.put_u8(TAG_REBIND);
                enc.put_str(name);
                enc.put_varint(id.0);
            }
            JournalRecord::Unbind { name } => {
                enc.put_u8(TAG_UNBIND);
                enc.put_str(name);
            }
            JournalRecord::LeaseGranted { id, expires_nanos } => {
                enc.put_u8(TAG_LEASE_GRANTED);
                enc.put_varint(id.0);
                enc.put_varint(*expires_nanos);
            }
            JournalRecord::LeaseRenewed { id, expires_nanos } => {
                enc.put_u8(TAG_LEASE_RENEWED);
                enc.put_varint(id.0);
                enc.put_varint(*expires_nanos);
            }
            JournalRecord::LeaseCleaned { id } => {
                enc.put_u8(TAG_LEASE_CLEANED);
                enc.put_varint(id.0);
            }
            JournalRecord::LeaseExpired { id } => {
                enc.put_u8(TAG_LEASE_EXPIRED);
                enc.put_varint(id.0);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = dec.take_u8("journal record tag")?;
        Ok(match tag {
            TAG_EXECUTED => JournalRecord::Executed {
                key: IdemKey::decode(dec)?,
                request: Frame::decode(dec)?,
                reply: Frame::decode(dec)?,
            },
            TAG_BIND => JournalRecord::Bind {
                name: dec.take_str("bind name")?,
                id: ObjectId(dec.take_varint("bind id")?),
            },
            TAG_REBIND => JournalRecord::Rebind {
                name: dec.take_str("rebind name")?,
                id: ObjectId(dec.take_varint("rebind id")?),
            },
            TAG_UNBIND => JournalRecord::Unbind {
                name: dec.take_str("unbind name")?,
            },
            TAG_LEASE_GRANTED => JournalRecord::LeaseGranted {
                id: ObjectId(dec.take_varint("lease id")?),
                expires_nanos: dec.take_varint("lease expiry")?,
            },
            TAG_LEASE_RENEWED => JournalRecord::LeaseRenewed {
                id: ObjectId(dec.take_varint("lease id")?),
                expires_nanos: dec.take_varint("lease expiry")?,
            },
            TAG_LEASE_CLEANED => JournalRecord::LeaseCleaned {
                id: ObjectId(dec.take_varint("lease id")?),
            },
            TAG_LEASE_EXPIRED => JournalRecord::LeaseExpired {
                id: ObjectId(dec.take_varint("lease id")?),
            },
            other => {
                return Err(WireError::UnknownTag {
                    context: "journal record",
                    tag: other,
                })
            }
        })
    }
}

/// Everything a compacted snapshot captures. Orderings are all sorted, so
/// the encoding is deterministic for a given server state.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SnapshotState {
    /// `ObjectTable::next_id` horizon at capture.
    pub next_export_id: u64,
    /// Registry bindings, sorted by name.
    pub bindings: Vec<(String, ObjectId)>,
    /// Live leases `(id, expires_nanos)`, sorted by id.
    pub leases: Vec<(u64, u64)>,
    /// Per-client reply-cache state, sorted by client id.
    pub clients: Vec<ClientReplayState>,
    /// Registered application states, sorted by registration name.
    pub app_states: Vec<(String, Value)>,
}

const SNAPSHOT_VERSION: u8 = 1;

impl WireCodec for SnapshotState {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(SNAPSHOT_VERSION);
        enc.put_varint(self.next_export_id);
        enc.put_varint(self.bindings.len() as u64);
        for (name, id) in &self.bindings {
            enc.put_str(name);
            enc.put_varint(id.0);
        }
        enc.put_varint(self.leases.len() as u64);
        for (id, expires) in &self.leases {
            enc.put_varint(*id);
            enc.put_varint(*expires);
        }
        enc.put_varint(self.clients.len() as u64);
        for client in &self.clients {
            enc.put_varint(client.client_id);
            enc.put_varint(client.acked);
            enc.put_varint(client.evicted_floor);
            enc.put_varint(client.replies.len() as u64);
            for (seq, reply) in &client.replies {
                enc.put_varint(*seq);
                reply.encode(enc);
            }
        }
        enc.put_varint(self.app_states.len() as u64);
        for (name, state) in &self.app_states {
            enc.put_str(name);
            state.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let version = dec.take_u8("snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(WireError::UnknownTag {
                context: "snapshot version",
                tag: version,
            });
        }
        let next_export_id = dec.take_varint("snapshot next export id")?;
        let mut bindings = Vec::new();
        for _ in 0..dec.take_length("snapshot bindings")? {
            let name = dec.take_str("binding name")?;
            let id = ObjectId(dec.take_varint("binding id")?);
            bindings.push((name, id));
        }
        let mut leases = Vec::new();
        for _ in 0..dec.take_length("snapshot leases")? {
            let id = dec.take_varint("lease id")?;
            let expires = dec.take_varint("lease expiry")?;
            leases.push((id, expires));
        }
        let mut clients = Vec::new();
        for _ in 0..dec.take_length("snapshot clients")? {
            let client_id = dec.take_varint("client id")?;
            let acked = dec.take_varint("client acked")?;
            let evicted_floor = dec.take_varint("client evicted floor")?;
            let mut replies = Vec::new();
            for _ in 0..dec.take_length("client replies")? {
                let seq = dec.take_varint("reply seq")?;
                let reply = Frame::decode(dec)?;
                replies.push((seq, reply));
            }
            clients.push(ClientReplayState {
                client_id,
                acked,
                evicted_floor,
                replies,
            });
        }
        let mut app_states = Vec::new();
        for _ in 0..dec.take_length("snapshot app states")? {
            let name = dec.take_str("app state name")?;
            let state = Value::decode(dec)?;
            app_states.push((name, state));
        }
        Ok(SnapshotState {
            next_export_id,
            bindings,
            leases,
            clients,
            app_states,
        })
    }
}

/// Converts a clock reading to the journal's nanosecond representation.
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Inverse of [`duration_nanos`].
pub(crate) fn nanos_duration(n: u64) -> Duration {
    Duration::from_nanos(n)
}

/// The live journal attached to an
/// [`RmiServer`](crate::RmiServer) — owns the [`Log`], the quiesce lock
/// that orders keyed execution against snapshot capture, the snapshot
/// cadence and the thread that writes cadence snapshots.
pub struct Journal {
    log: Arc<Log>,
    dir: PathBuf,
    /// Keyed executions hold this for read around
    /// begin→execute→append→complete; snapshot capture takes it for
    /// write, so it sees no in-flight keyed work.
    quiesce: RwLock<()>,
    snapshot_every: u64,
    executions_since_snapshot: AtomicU64,
    cadence: Mutex<Cadence>,
    /// Captures on their way to the writer; `None` once dropping.
    jobs: Option<mpsc::Sender<SnapshotJob>>,
    writer: Option<JoinHandle<()>>,
    snapshot_pause: Histogram,
    snapshot_write: Histogram,
    snapshot_failures: Counter,
}

/// Where the cadence snapshot stands.
enum Cadence {
    /// No cadence snapshot is in progress.
    Idle,
    /// A dispatch thread is capturing. Crossings meanwhile skip: the
    /// capture resets the count.
    Capturing,
    /// The writer has this capture queued or in hand until the slot is
    /// filled; a filled slot is as good as [`Cadence::Idle`].
    Writing(Arc<OneShot<()>>),
}

/// One capture handed to the writer: the state as of `floor`.
struct SnapshotJob {
    floor: u64,
    state: SnapshotState,
    written: Written,
}

/// Fills its slot when dropped: after the write, on a failed or
/// panicking one, and for a job the writer never took. So nobody waits
/// for a snapshot forever.
struct Written(Arc<OneShot<()>>);

impl Drop for Written {
    fn drop(&mut self) {
        self.0.set(());
    }
}

/// The writer thread: encodes each capture and writes it through `log`.
/// It holds the log and the metrics, never the journal or the server, so
/// dropping the journal can close the channel and join it.
fn write_snapshots(
    log: &Log,
    jobs: &mpsc::Receiver<SnapshotJob>,
    write: &Histogram,
    failures: &Counter,
) {
    for job in jobs {
        let started = Instant::now();
        if log
            .write_snapshot(job.floor, &job.state.to_wire_bytes())
            .is_err()
        {
            failures.inc();
        }
        write.record_nanos(started.elapsed());
        drop(job.written);
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("stats", &self.log.stats())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Wraps `log` and starts the snapshot writer thread (none when the
    /// cadence is off).
    pub(crate) fn new(log: Log, dir: &Path, snapshot_every: u64) -> Arc<Journal> {
        let log = Arc::new(log);
        let snapshot_write = Histogram::new();
        let snapshot_failures = Counter::new();
        let (jobs, writer) = if snapshot_every == 0 {
            (None, None)
        } else {
            let (jobs, queued) = mpsc::channel();
            let (log, write, failures) = (
                Arc::clone(&log),
                snapshot_write.clone(),
                snapshot_failures.clone(),
            );
            let writer = std::thread::Builder::new()
                .name("brmi-snapshot-writer".into())
                .spawn(move || write_snapshots(&log, &queued, &write, &failures))
                .expect("spawn snapshot writer");
            (Some(jobs), Some(writer))
        };
        Arc::new(Journal {
            log,
            dir: dir.to_path_buf(),
            quiesce: RwLock::new(()),
            snapshot_every,
            executions_since_snapshot: AtomicU64::new(0),
            cadence: Mutex::new(Cadence::Idle),
            jobs,
            writer,
            snapshot_pause: Histogram::new(),
            snapshot_write,
            snapshot_failures,
        })
    }

    /// The directory the journal persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying log (crash-point arming, stats, introspection).
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Counter snapshot of the underlying log.
    pub fn stats(&self) -> LogStats {
        self.log.stats()
    }

    /// Registers the log's `durable_*` metric families with `registry`,
    /// and the journal's own: `durable_snapshot_pause_nanos` (how long
    /// keyed dispatch was held off per capture — quiesce wait, capture
    /// and segment seal), `durable_snapshot_write_nanos` (the writer's
    /// time per cadence snapshot) and `durable_snapshot_failures`
    /// (cadence snapshots whose capture or write failed).
    pub fn register_metrics(&self, registry: &brmi_obs::Registry) {
        self.log.register_metrics(registry);
        registry.register_histogram("durable_snapshot_pause_nanos", &[], &self.snapshot_pause);
        registry.register_histogram("durable_snapshot_write_nanos", &[], &self.snapshot_write);
        registry.register_counter("durable_snapshot_failures", &[], &self.snapshot_failures);
    }

    /// Enters a keyed execution: holds off snapshot capture until the
    /// guard drops.
    pub(crate) fn begin_keyed(&self) -> parking_lot::RwLockReadGuard<'_, ()> {
        self.quiesce.read()
    }

    /// Journals one keyed execution and makes it durable before the
    /// caller releases the reply.
    pub(crate) fn executed(
        &self,
        key: IdemKey,
        request: &Frame,
        reply: &Frame,
    ) -> Result<(), LogError> {
        RECORD_BUF.with(|buf| {
            let mut enc = Encoder::with_buffer(buf.take());
            encode_executed(&mut enc, &key, request, reply);
            let appended = self.log.append_durable(enc.as_slice());
            buf.replace(enc.into_bytes());
            appended
        })?;
        self.executions_since_snapshot
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Journals a standalone (unkeyed-path) registry or lease event.
    /// No-op inside a suppressed scope.
    pub(crate) fn event(&self, record: &JournalRecord) -> Result<(), LogError> {
        self.log.append_durable(&record.to_wire_bytes()).map(|_| ())
    }

    /// Captures a snapshot and hands it to the writer if the cadence says
    /// one is due and no other thread is capturing one; waits first if
    /// the writer still has the previous one. A failed capture or write
    /// is counted in `durable_snapshot_failures`, never surfaced to the
    /// request: its reply is already durable.
    pub(crate) fn maybe_snapshot(&self, server: &crate::RmiServer) {
        let Some(jobs) = &self.jobs else { return };
        loop {
            if !self.snapshot_due() {
                return;
            }
            let mut cadence = self.cadence.lock();
            match &*cadence {
                Cadence::Capturing => return,
                Cadence::Writing(written) if written.try_get().is_none() => {
                    let written = Arc::clone(written);
                    drop(cadence);
                    written.get();
                }
                // Re-checked under the lock: a capture that finished since
                // the check above has reset the count.
                _ if !self.snapshot_due() => return,
                _ => {
                    *cadence = Cadence::Capturing;
                    break;
                }
            }
        }
        match self.capture(server) {
            Ok((floor, state)) => {
                let written = Arc::new(OneShot::default());
                *self.cadence.lock() = Cadence::Writing(Arc::clone(&written));
                // A closed channel drops the job, which fills the slot.
                let _ = jobs.send(SnapshotJob {
                    floor,
                    state,
                    written: Written(written),
                });
            }
            Err(_) => {
                self.snapshot_failures.inc();
                *self.cadence.lock() = Cadence::Idle;
            }
        }
    }

    fn snapshot_due(&self) -> bool {
        self.executions_since_snapshot.load(Ordering::Relaxed) >= self.snapshot_every
    }

    /// Blocks until the writer has no cadence snapshot queued or in hand:
    /// every snapshot captured so far is then on disk (or counted as
    /// failed) and the segments it covers are reclaimed. A capture still
    /// running on a dispatch thread is not waited for.
    pub fn wait_snapshots(&self) {
        let pending = match &*self.cadence.lock() {
            Cadence::Writing(written) => Some(Arc::clone(written)),
            Cadence::Idle | Cadence::Capturing => None,
        };
        if let Some(written) = pending {
            written.get();
        }
    }

    /// Writes a compacted snapshot of `server`'s durable state and
    /// garbage-collects the log segments it covers, on the calling
    /// thread. Keyed execution is quiesced only while the state is
    /// captured and the active segment sealed; encoding it and writing
    /// the file happen with traffic running.
    ///
    /// # Errors
    ///
    /// [`LogError`] from the underlying log (including an injected
    /// crash).
    pub fn snapshot_now(&self, server: &crate::RmiServer) -> Result<(), LogError> {
        let (floor, state) = self.capture(server)?;
        self.log.write_snapshot(floor, &state.to_wire_bytes())
    }

    /// Quiesces keyed dispatch, captures the state as of the current
    /// floor, resets the cadence count and seals the active segment at
    /// the floor. Records the pause in `durable_snapshot_pause_nanos`.
    fn capture(&self, server: &crate::RmiServer) -> Result<(u64, SnapshotState), LogError> {
        let started = Instant::now();
        let captured = {
            let _pause = self.quiesce.write();
            // No keyed execution is in flight, and each one that finished
            // made its record durable before releasing the lock, so the
            // capture is exactly the state as of `floor`. Read the floor
            // BEFORE capturing: any record a concurrent unkeyed mutation
            // appends after this point gets an LSN at or above the floor
            // and will replay over the snapshot — safe, because those
            // records apply as idempotent upserts.
            let floor = self.log.next_lsn();
            let state = server.capture_snapshot_state();
            self.executions_since_snapshot.store(0, Ordering::Relaxed);
            // Sealing before keyed traffic resumes keeps every later
            // keyed record out of the segments this snapshot covers.
            self.log.seal_segment(floor).map(|()| (floor, state))
        };
        self.snapshot_pause.record_nanos(started.elapsed());
        captured
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Closing the channel lets the writer finish the snapshot in
        // hand and exit; joining it means nothing writes to the
        // directory once the journal is gone.
        self.jobs = None;
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// A late-bound journal slot embedded in the registry and the DGC so
/// their mutation paths can journal once a journal is attached (and
/// cheaply no-op before that, and inside suppressed scopes).
#[derive(Default)]
pub(crate) struct JournalCell(RwLock<Option<Arc<Journal>>>);

impl std::fmt::Debug for JournalCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JournalCell(attached: {})", self.0.read().is_some())
    }
}

impl JournalCell {
    pub(crate) fn attach(&self, journal: &Arc<Journal>) {
        *self.0.write() = Some(Arc::clone(journal));
    }

    /// Journals the record produced by `make` unless no journal is
    /// attached or the current thread is in a suppressed scope (keyed
    /// execution / recovery replay, where the enclosing `Executed` record
    /// or the replay itself already covers the mutation).
    pub(crate) fn record(&self, make: impl FnOnce() -> JournalRecord) {
        if is_suppressed() {
            return;
        }
        let Some(journal) = self.0.read().clone() else {
            return;
        };
        let _ = journal.event(&make());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_records_round_trip() {
        let records = vec![
            JournalRecord::Executed {
                key: IdemKey {
                    client_id: 3,
                    seq: 9,
                    acked: 7,
                },
                request: Frame::Call {
                    key: None,
                    target: ObjectId(4),
                    method: "transfer".into(),
                    args: vec![Value::Str("acct".into()), Value::F64(12.5)],
                },
                reply: Frame::Return(Value::Bool(true)),
            },
            JournalRecord::Bind {
                name: "bank".into(),
                id: ObjectId(11),
            },
            JournalRecord::Rebind {
                name: "bank".into(),
                id: ObjectId(12),
            },
            JournalRecord::Unbind {
                name: "bank".into(),
            },
            JournalRecord::LeaseGranted {
                id: ObjectId(20),
                expires_nanos: 1_000_000_007,
            },
            JournalRecord::LeaseRenewed {
                id: ObjectId(20),
                expires_nanos: 2_000_000_014,
            },
            JournalRecord::LeaseCleaned { id: ObjectId(20) },
            JournalRecord::LeaseExpired { id: ObjectId(21) },
        ];
        for record in records {
            let bytes = record.to_wire_bytes();
            let decoded = JournalRecord::from_wire_bytes(&bytes).expect("decode");
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn snapshot_state_round_trips() {
        let state = SnapshotState {
            next_export_id: 42,
            bindings: vec![("bank".into(), ObjectId(3)), ("list".into(), ObjectId(5))],
            leases: vec![(7, 1_000), (9, 2_000)],
            clients: vec![ClientReplayState {
                client_id: 1,
                acked: 2,
                evicted_floor: 1,
                replies: vec![(2, Frame::Return(Value::I64(8)))],
            }],
            app_states: vec![("bank".into(), Value::List(vec![Value::F64(100.0)]))],
        };
        let bytes = state.to_wire_bytes();
        let decoded = SnapshotState::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(decoded, state);
    }

    #[test]
    fn unknown_record_tag_is_rejected() {
        assert!(JournalRecord::from_wire_bytes(&[99]).is_err());
    }

    #[test]
    fn suppression_nests() {
        assert!(!is_suppressed());
        with_suppressed(|| {
            assert!(is_suppressed());
            with_suppressed(|| assert!(is_suppressed()));
            assert!(is_suppressed());
        });
        assert!(!is_suppressed());
    }
}
