//! The segmented append-only log.
//!
//! ## On-disk layout
//!
//! A log directory holds three kinds of files:
//!
//! * `seg-<base_lsn:020>.log` — a segment: a run of records whose LSNs
//!   start at `base_lsn` (taken from the filename) and increase by one per
//!   record. Only the highest segment is ever appended to.
//! * `snap-<next_lsn:020>.snap` — a compacted snapshot: one record (same
//!   framing) whose payload captures all state produced by LSNs
//!   `< next_lsn`. Written to a `.tmp` sibling, fsynced, then renamed, so
//!   a snapshot file is either absent or complete.
//! * `*.tmp` — an interrupted snapshot; deleted on open.
//!
//! Every record is framed `[u32 LE payload_len][u32 LE crc32(payload)]
//! [payload]`. Recovery walks segments in LSN order verifying each frame
//! and **truncates at the first torn or corrupt record** (later segments
//! are dropped wholesale): nothing past a bad frame was ever acknowledged
//! as durable, so losing it is correct — and keeping it would risk
//! resurrecting a half-written mutation.
//!
//! ## Commit protocol
//!
//! Group commit is a two-stage pipeline with one leader at a time:
//!
//! 1. [`Log::append`] assigns an LSN and stages the framed record in
//!    memory under the log mutex — nothing else happens under it, so
//!    staging never waits for the disk.
//! 2. [`Log::commit_through`] returns at once if the LSN is already
//!    durable. If a flush is in flight it waits on a condition variable.
//!    Otherwise the caller becomes the **leader**: it takes *everything*
//!    staged, **releases the mutex**, issues one `write` + one
//!    `fdatasync` for the whole group, re-takes the mutex to publish the
//!    group (index entries, `durable_lsn`, segment rotation) and wakes
//!    every waiter. While group N is on its way to the disk, appenders
//!    stage group N+1; the first waiter to wake and find its LSN still
//!    undurable leads that group.
//!
//! A committer returns `Ok` only after the fsync covering its LSN has
//! returned, so a reply released on `Ok` is never ahead of the disk.
//! Record locations are assigned when a group is published, not when it
//! is staged: a rotation may happen with records staged, and the new
//! segment is based at the first *unwritten* LSN, which keeps
//! `lsn == seg_base + index` true for every record on disk.
//!
//! A flush that fails is never forgotten: a power cut
//! ([`LogError::Crashed`]) or a real I/O error fails every committer of
//! that group and **every later operation** until the directory is
//! reopened — otherwise the next successful flush would advance
//! `durable_lsn` over records that never reached the disk.
//!
//! [`Log::commit`] makes everything appended so far durable;
//! [`Log::append_durable`] is append + commit-through fused.
//! [`Log::write_snapshot`] commits the history it claims the same way,
//! then writes, fsyncs and renames the snapshot file *outside* the mutex
//! and takes it again only to publish the floor and reclaim what it
//! covers — appends and commits proceed while a snapshot is written.
//! [`Log::seal_segment`] takes the segment cut at the moment a state is
//! captured, so the file itself can be written later, off the caller's
//! path, without moving any segment boundary.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use brmi_obs::{Counter, Histogram, Registry};

use crate::crash::CrashPoint;

/// Frame header size: 4-byte length + 4-byte CRC.
const HEADER_BYTES: usize = 8;

/// Tuning knobs for a [`Log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Seal the active segment and start a new one once it holds at least
    /// this many bytes (checked after each commit).
    pub segment_bytes: u64,
    /// Recovery treats any frame announcing a payload larger than this as
    /// corrupt (a torn length field can claim gigabytes).
    pub max_record_bytes: u32,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            segment_bytes: 64 * 1024,
            max_record_bytes: 1 << 26,
        }
    }
}

/// Failures on the log's hot path.
#[derive(Debug)]
pub enum LogError {
    /// A real I/O error from the filesystem.
    Io(std::io::Error),
    /// The armed [`CrashPoint`] has struck: the simulated machine is down
    /// and no further operation will succeed until the log is reopened.
    Crashed,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(err) => write!(f, "durable log I/O error: {err}"),
            LogError::Crashed => write!(f, "durable log crashed (injected power cut)"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(err) => Some(err),
            LogError::Crashed => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(err: std::io::Error) -> LogError {
        LogError::Io(err)
    }
}

/// What [`Log::open`] found on disk, in replay order.
#[derive(Debug)]
pub struct Recovered {
    /// The newest intact snapshot, as `(next_lsn, payload)`: the payload
    /// captures all effects of LSNs `< next_lsn`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Every verified record at or above the snapshot floor, as
    /// `(lsn, payload)`, ascending.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Records discarded because they (or an earlier record) failed
    /// verification — the unacknowledged torn tail.
    pub truncated_records: u64,
    /// Bytes discarded with them.
    pub truncated_bytes: u64,
    /// The LSN the reopened log will assign next.
    pub next_lsn: u64,
}

/// A point-in-time copy of the log's counters (see
/// [`Log::register_metrics`] for the metric names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Records staged via [`Log::append`].
    pub appends: u64,
    /// Payload+frame bytes physically written to segment or snapshot
    /// files.
    pub bytes: u64,
    /// `fsync` calls issued (group commit makes this less than appends
    /// under concurrency).
    pub fsyncs: u64,
    /// Times a log was recovered from this directory.
    pub recoveries: u64,
    /// Torn/corrupt records truncated during recovery.
    pub truncated_records: u64,
    /// Snapshots successfully written.
    pub snapshots: u64,
}

/// Where a durable record lives on disk — the in-memory index entry.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    seg_base: u64,
    offset: u64,
    frame_len: u32,
}

/// Records staged by `append`, in LSN order: the framed bytes and each
/// frame's length. Where they land on disk is decided when the group is
/// published.
#[derive(Debug, Default)]
struct Group {
    bytes: Vec<u8>,
    frames: Vec<u32>,
}

#[derive(Debug)]
struct SealedSeg {
    base: u64,
    records: u64,
    path: PathBuf,
}

struct Inner {
    crash: Arc<CrashPoint>,
    /// Active segment file, positioned at its end. Shared so the flush
    /// leader can write to it with the mutex released; only the holder of
    /// the flush token (`flushing`) writes to or replaces it.
    file: Arc<File>,
    seg_base: u64,
    /// Records and bytes of the active segment that are on disk (staged
    /// and in-flight records are not counted).
    seg_records: u64,
    seg_bytes: u64,
    sealed: Vec<SealedSeg>,
    /// Records awaiting the next group: LSNs
    /// `[next_lsn - staged.frames.len(), next_lsn)`.
    staged: Group,
    /// The previous group's buffers, emptied, for the next swap.
    spare: Group,
    /// The flush token: a leader is writing LSNs
    /// `[durable_lsn, next_lsn - staged.frames.len())` with the mutex
    /// released.
    flushing: bool,
    /// A flush failed with an I/O error: its records are lost, so every
    /// later operation fails too (see the module docs).
    failed: Option<(std::io::ErrorKind, String)>,
    next_lsn: u64,
    durable_lsn: u64,
    /// `next_lsn` of the latest snapshot (0 when none).
    snapshot_floor: u64,
    /// lsn → location, for every durable record still on disk.
    index: BTreeMap<u64, RecordLoc>,
}

/// A crash-recoverable segmented append-only log. See the [module
/// docs](self) for the format and the [crate docs](crate) for the
/// durability contract.
pub struct Log {
    dir: PathBuf,
    config: LogConfig,
    inner: Mutex<Inner>,
    /// Signalled whenever a flush finishes (or fails).
    flushed: Condvar,
    /// Serialises [`Log::write_snapshot`] calls; never taken on the
    /// append/commit path.
    snapshot_gate: Mutex<()>,
    fsync_latency: Histogram,
    group_size: Histogram,
    commit_wait: Histogram,
    appends: Counter,
    bytes: Counter,
    fsyncs: Counter,
    recoveries: Counter,
    truncated: Counter,
    snapshots: Counter,
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log").finish_non_exhaustive()
    }
}

/// `CRC_TABLE[b]`: the CRC register after shifting byte `b` through the
/// reflected polynomial `0xEDB88320`.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0_u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// The IEEE CRC-32 (polynomial `0xEDB88320`), one table lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

fn seg_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("seg-{base:020}.log"))
}

fn snap_path(dir: &Path, next_lsn: u64) -> PathBuf {
    dir.join(format!("snap-{next_lsn:020}.snap"))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Appends `payload`'s frame to `out`; `crc` is `crc32(payload)`, taken
/// by the caller so it can be computed outside a lock.
fn frame_record(out: &mut Vec<u8>, payload: &[u8], crc: u32) {
    let len = u32::try_from(payload.len()).expect("record payload over 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

impl Inner {
    /// Fails once the crash point has struck or a flush has failed.
    fn check_alive(&self) -> Result<(), LogError> {
        if self.crash.is_crashed() {
            return Err(LogError::Crashed);
        }
        match &self.failed {
            Some((kind, message)) => Err(LogError::Io(std::io::Error::new(
                *kind,
                format!("an earlier flush failed and lost its records: {message}"),
            ))),
            None => Ok(()),
        }
    }
}

/// Parses one frame at `buf[offset..]`. `Ok(Some(payload_range))` on a
/// verified record, `Ok(None)` for a clean end exactly at the buffer's
/// end, `Err(())` on a torn or corrupt frame.
#[allow(clippy::result_unit_err)]
fn parse_frame(
    buf: &[u8],
    offset: usize,
    max_record_bytes: u32,
) -> Result<Option<std::ops::Range<usize>>, ()> {
    if offset == buf.len() {
        return Ok(None);
    }
    if buf.len() - offset < HEADER_BYTES {
        return Err(());
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().expect("4 bytes"));
    if len > max_record_bytes {
        return Err(());
    }
    let len = len as usize;
    let start = offset + HEADER_BYTES;
    if buf.len() - start < len {
        return Err(());
    }
    if crc32(&buf[start..start + len]) != crc {
        return Err(());
    }
    Ok(Some(start..start + len))
}

impl Log {
    /// Opens (creating if absent) the log in `dir` and recovers whatever
    /// survives there. Equivalent to [`Log::open_with`] armed with a
    /// [`CrashPoint`] that never fires.
    pub fn open(dir: impl AsRef<Path>, config: LogConfig) -> Result<(Log, Recovered), LogError> {
        Log::open_with(dir, config, CrashPoint::never())
    }

    /// Opens the log with an explicit crash point armed on its write
    /// path. Recovery itself only reads, so it cannot trip the point.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: LogConfig,
        crash: Arc<CrashPoint>,
    ) -> Result<(Log, Recovered), LogError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut seg_bases: Vec<u64> = Vec::new();
        let mut snap_lsns: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            } else if let Some(base) = parse_numbered(name, "seg-", ".log") {
                seg_bases.push(base);
            } else if let Some(lsn) = parse_numbered(name, "snap-", ".snap") {
                snap_lsns.push(lsn);
            }
        }
        seg_bases.sort_unstable();
        snap_lsns.sort_unstable();

        // Newest intact snapshot wins; corrupt candidates are removed and
        // the scan falls back to the next-newest.
        let mut snapshot: Option<(u64, Vec<u8>)> = None;
        for &lsn in snap_lsns.iter().rev() {
            let path = snap_path(&dir, lsn);
            let buf = fs::read(&path)?;
            match parse_frame(&buf, 0, config.max_record_bytes) {
                Ok(Some(range)) if range.end == buf.len() => {
                    snapshot = Some((lsn, buf[range].to_vec()));
                    break;
                }
                _ => {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        let snapshot_floor = snapshot.as_ref().map_or(0, |(lsn, _)| *lsn);

        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut index: BTreeMap<u64, RecordLoc> = BTreeMap::new();
        let mut sealed: Vec<SealedSeg> = Vec::new();
        let mut truncated_records = 0_u64;
        let mut truncated_bytes = 0_u64;
        let mut torn = false;
        // (base, kept records, kept bytes) of the last surviving segment.
        let mut tail: Option<(u64, u64, u64)> = None;

        for (pos, &base) in seg_bases.iter().enumerate() {
            let path = seg_path(&dir, base);
            if torn {
                // Everything after the first bad record is unacknowledged
                // tail: drop whole later segments.
                truncated_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                truncated_records += count_records(&path, config.max_record_bytes);
                let _ = fs::remove_file(&path);
                continue;
            }
            let buf = fs::read(&path)?;
            let mut offset = 0_usize;
            let mut kept = 0_u64;
            loop {
                match parse_frame(&buf, offset, config.max_record_bytes) {
                    Ok(None) => break,
                    Ok(Some(range)) => {
                        let lsn = base + kept;
                        let loc = RecordLoc {
                            seg_base: base,
                            offset: offset as u64,
                            frame_len: (HEADER_BYTES + range.len()) as u32,
                        };
                        index.insert(lsn, loc);
                        if lsn >= snapshot_floor {
                            records.push((lsn, buf[range.clone()].to_vec()));
                        }
                        offset = range.end;
                        kept += 1;
                    }
                    Err(()) => {
                        torn = true;
                        truncated_records += 1;
                        truncated_bytes += (buf.len() - offset) as u64;
                        let file = OpenOptions::new().write(true).open(&path)?;
                        file.set_len(offset as u64)?;
                        file.sync_data()?;
                        break;
                    }
                }
            }
            if pos == seg_bases.len() - 1 || torn {
                tail = Some((base, kept, offset as u64));
            } else {
                sealed.push(SealedSeg {
                    base,
                    records: kept,
                    path,
                });
            }
        }

        let (seg_base, seg_records, seg_bytes, file) = match tail {
            Some((base, kept, bytes)) => {
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(seg_path(&dir, base))?;
                file.seek(SeekFrom::End(0))?;
                (base, kept, bytes, file)
            }
            None => {
                let base = snapshot_floor;
                let file = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .read(true)
                    .open(seg_path(&dir, base))?;
                (base, 0, 0, file)
            }
        };
        let next_lsn = (seg_base + seg_records).max(snapshot_floor);

        let log = Log {
            dir,
            config,
            inner: Mutex::new(Inner {
                crash,
                file: Arc::new(file),
                seg_base,
                seg_records,
                seg_bytes,
                sealed,
                staged: Group::default(),
                spare: Group::default(),
                flushing: false,
                failed: None,
                next_lsn,
                durable_lsn: next_lsn,
                snapshot_floor,
                index,
            }),
            flushed: Condvar::new(),
            snapshot_gate: Mutex::new(()),
            fsync_latency: Histogram::new(),
            group_size: Histogram::new(),
            commit_wait: Histogram::new(),
            appends: Counter::new(),
            bytes: Counter::new(),
            fsyncs: Counter::new(),
            recoveries: Counter::new(),
            truncated: Counter::new(),
            snapshots: Counter::new(),
        };
        log.recoveries.inc();
        log.truncated.add(truncated_records);
        let recovered = Recovered {
            snapshot,
            records,
            truncated_records,
            truncated_bytes,
            next_lsn,
        };
        Ok((log, recovered))
    }

    /// Stages `payload` as the next record and returns its LSN. The
    /// record is **not durable** until a [`Log::commit`] (or
    /// [`Log::append_durable`]) covering that LSN returns. Never waits for
    /// the disk, even while a flush is in flight.
    pub fn append(&self, payload: &[u8]) -> Result<u64, LogError> {
        let crc = crc32(payload);
        let mut g = self.lock();
        g.check_alive()?;
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        frame_record(&mut g.staged.bytes, payload, crc);
        g.staged.frames.push((HEADER_BYTES + payload.len()) as u32);
        self.appends.inc();
        Ok(lsn)
    }

    /// Group commit: makes every record appended so far durable, then
    /// returns the durable LSN horizon (all LSNs below it are durable). A
    /// no-op when nothing is pending.
    pub fn commit(&self) -> Result<u64, LogError> {
        Ok(self.commit_all()?.durable_lsn)
    }

    /// Makes `lsn` durable: returns immediately if a concurrent committer
    /// already flushed past it, waits if the flush in flight may cover it,
    /// and otherwise leads the next group (see the [module docs](self)).
    pub fn commit_through(&self, lsn: u64) -> Result<(), LogError> {
        self.wait_durable(self.lock(), lsn.saturating_add(1)).1
    }

    /// [`Log::append`] + [`Log::commit_through`] fused: returns once the
    /// record (and everything staged before it) is durable.
    pub fn append_durable(&self, payload: &[u8]) -> Result<u64, LogError> {
        let lsn = self.append(payload)?;
        self.commit_through(lsn)?;
        Ok(lsn)
    }

    /// Makes every LSN below `floor` durable and seals the active segment
    /// (if it holds any record), so records appended from here on land in
    /// a segment a snapshot at `floor` does not cover. A caller that
    /// captures state as of `floor` seals at the capture, then hands the
    /// file to [`Log::write_snapshot`] on another thread: the segment
    /// boundaries stay a function of the append sequence alone, however
    /// long the file takes to write.
    pub fn seal_segment(&self, floor: u64) -> Result<(), LogError> {
        let (g, committed) = self.wait_durable(self.lock(), floor);
        committed?;
        self.seal_if(g, |g| g.seg_records > 0).map(drop)
    }

    /// Writes a compacted snapshot claiming to capture all effects of
    /// LSNs `< next_lsn`, then garbage-collects segments (and older
    /// snapshots) fully covered by it. The history the claim covers is
    /// committed first, so it can only cover durable records. The file is
    /// written with the log mutex released: appends and commits proceed
    /// meanwhile. If the active segment still holds records below the
    /// floor it is sealed once the file is in place, so they can be
    /// reclaimed; after a [`Log::seal_segment`] at the same floor there is
    /// nothing to seal and the file write is all that is left.
    pub fn write_snapshot(&self, next_lsn: u64, payload: &[u8]) -> Result<(), LogError> {
        let _one_snapshot = self.snapshot_gate.lock().expect("snapshot gate poisoned");
        let crash = {
            let (g, committed) = self.wait_durable(self.lock(), next_lsn);
            g.check_alive()?;
            committed?;
            assert!(
                next_lsn <= g.durable_lsn,
                "snapshot claims undurable lsn {} (durable horizon {})",
                next_lsn,
                g.durable_lsn
            );
            Arc::clone(&g.crash)
        };

        // Frame, write to a .tmp sibling, fsync, rename: the final file
        // is either absent or complete.
        let mut framed = Vec::with_capacity(HEADER_BYTES + payload.len());
        frame_record(&mut framed, payload, crc32(payload));
        let final_path = snap_path(&self.dir, next_lsn);
        let tmp_path = final_path.with_extension("snap.tmp");
        {
            let tmp = File::create(&tmp_path)?;
            let written = self
                .write_crashing(&crash, &tmp, &framed)
                .and_then(|()| Ok(tmp.sync_data()?));
            if let Err(err) = written {
                // A failed disk leaves the machine up, and nothing but the
                // next open would sweep the partial file. (After a power
                // cut nothing runs: recovery sweeps it.)
                if matches!(err, LogError::Io(_)) {
                    let _ = fs::remove_file(&tmp_path);
                }
                return Err(err);
            }
            self.fsyncs.inc();
        }
        fs::rename(&tmp_path, &final_path)?;
        self.sync_dir();
        self.snapshots.inc();

        // Seal the active segment if it holds records below the floor,
        // publish the floor, and unlink from the index every segment the
        // snapshot fully covers.
        let (floor, reclaimed) = {
            let g = self.lock();
            let floor = g.snapshot_floor.max(next_lsn);
            let mut g = self.seal_if(g, |g| g.seg_records > 0 && g.seg_base < floor)?;
            g.snapshot_floor = floor;
            let (reclaimed, kept): (Vec<SealedSeg>, Vec<SealedSeg>) = std::mem::take(&mut g.sealed)
                .into_iter()
                .partition(|seg| seg.base + seg.records <= floor);
            g.sealed = kept;
            for seg in &reclaimed {
                for lsn in seg.base..seg.base + seg.records {
                    g.index.remove(&lsn);
                }
            }
            (floor, reclaimed)
        };
        for seg in reclaimed {
            let _ = fs::remove_file(&seg.path);
        }
        for entry in fs::read_dir(&self.dir)?.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(lsn) = parse_numbered(name, "snap-", ".snap") {
                if lsn < floor {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Random-access read of a durable record through the in-memory
    /// index. Staged-but-uncommitted LSNs and LSNs reclaimed by snapshot
    /// GC return `None`.
    pub fn read(&self, lsn: u64) -> Result<Option<Vec<u8>>, LogError> {
        let g = self.lock();
        g.check_alive()?;
        let Some(loc) = g.index.get(&lsn).copied() else {
            return Ok(None);
        };
        let mut file = File::open(seg_path(&self.dir, loc.seg_base))?;
        file.seek(SeekFrom::Start(loc.offset))?;
        let mut frame = vec![0_u8; loc.frame_len as usize];
        file.read_exact(&mut frame)?;
        match parse_frame(&frame, 0, self.config.max_record_bytes) {
            Ok(Some(range)) => Ok(Some(frame[range].to_vec())),
            _ => Err(LogError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("indexed record at lsn {lsn} failed verification"),
            ))),
        }
    }

    /// The LSN the next [`Log::append`] will receive.
    pub fn next_lsn(&self) -> u64 {
        self.lock().next_lsn
    }

    /// All LSNs below this horizon are durable.
    pub fn durable_lsn(&self) -> u64 {
        self.lock().durable_lsn
    }

    /// `next_lsn` of the newest snapshot (0 when none exists).
    pub fn snapshot_floor(&self) -> u64 {
        self.lock().snapshot_floor
    }

    /// Number of segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.lock().sealed.len() + 1
    }

    /// Replaces the armed crash point (tests arm a fresh one per run on a
    /// log opened crash-free).
    pub fn arm_crash(&self, point: Arc<CrashPoint>) {
        self.lock().crash = point;
    }

    /// True once the armed crash point has struck.
    pub fn is_crashed(&self) -> bool {
        self.lock().crash.is_crashed()
    }

    /// A point-in-time copy of the log's counters.
    pub fn stats(&self) -> LogStats {
        LogStats {
            appends: self.appends.value(),
            bytes: self.bytes.value(),
            fsyncs: self.fsyncs.value(),
            recoveries: self.recoveries.value(),
            truncated_records: self.truncated.value(),
            snapshots: self.snapshots.value(),
        }
    }

    /// Registers the log's counters with `registry` under the `durable_*`
    /// families: `durable_appends`, `durable_bytes`, `durable_fsyncs`,
    /// `durable_recoveries`, `durable_truncated_records`,
    /// `durable_snapshots` — and the group-commit histograms:
    /// `durable_fsync_latency_nanos` (one `fdatasync` of a group),
    /// `durable_group_size` (records per fsync) and
    /// `durable_commit_wait_nanos` (how long a committer whose LSN was not
    /// yet durable waited, as leader or follower).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_histogram("durable_fsync_latency_nanos", &[], &self.fsync_latency);
        registry.register_histogram("durable_group_size", &[], &self.group_size);
        registry.register_histogram("durable_commit_wait_nanos", &[], &self.commit_wait);
        registry.register_counter("durable_appends", &[], &self.appends);
        registry.register_counter("durable_bytes", &[], &self.bytes);
        registry.register_counter("durable_fsyncs", &[], &self.fsyncs);
        registry.register_counter("durable_recoveries", &[], &self.recoveries);
        registry.register_counter("durable_truncated_records", &[], &self.truncated);
        registry.register_counter("durable_snapshots", &[], &self.snapshots);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("durable log poisoned")
    }

    /// Writes `buf` through the crash point: a struck budget cuts the
    /// write short at the exact admitted byte (the torn tail a power cut
    /// leaves) and reports [`LogError::Crashed`] — or, for a point armed
    /// with [`CrashPoint::io_error_at_byte`], a plain I/O error.
    fn write_crashing(
        &self,
        crash: &CrashPoint,
        mut file: &File,
        buf: &[u8],
    ) -> Result<(), LogError> {
        let admitted = crash.admit(buf.len());
        if admitted > 0 {
            file.write_all(&buf[..admitted])?;
            self.bytes.add(admitted as u64);
        }
        if admitted < buf.len() {
            if !crash.is_crashed() {
                return Err(LogError::Io(std::io::Error::other("injected write error")));
            }
            // Persist the torn prefix the way a dying kernel might, so
            // recovery faces the worst case rather than a clean cut.
            let _ = file.sync_data();
            return Err(LogError::Crashed);
        }
        Ok(())
    }

    /// Makes every record appended before the call durable; fails on a
    /// dead log even when nothing is pending.
    fn commit_all(&self) -> Result<MutexGuard<'_, Inner>, LogError> {
        let g = self.lock();
        g.check_alive()?;
        let horizon = g.next_lsn;
        let (g, result) = self.wait_durable(g, horizon);
        result.map(|()| g)
    }

    /// Returns once every LSN below `horizon` is durable, leading as many
    /// groups as it takes and waiting out flushes led by others.
    fn wait_durable<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner>,
        horizon: u64,
    ) -> (MutexGuard<'a, Inner>, Result<(), LogError>) {
        if g.durable_lsn >= horizon {
            return (g, Ok(()));
        }
        let entered = Instant::now();
        let result = loop {
            if g.durable_lsn >= horizon {
                break Ok(());
            }
            if let Err(err) = g.check_alive() {
                break Err(err);
            }
            if g.flushing {
                g = self.flushed.wait(g).expect("durable log poisoned");
            } else if g.staged.frames.is_empty() {
                // Everything ever appended is durable: `horizon` lies
                // past the end of the log.
                break Ok(());
            } else {
                g = self.lead_group(g);
            }
        };
        self.commit_wait.record_nanos(entered.elapsed());
        (g, result)
    }

    /// Leads one group: takes everything staged, writes and fsyncs it
    /// with the mutex released, then publishes it and wakes the waiters.
    /// A failure is left in `crash`/`failed` for `check_alive` to report.
    fn lead_group<'a>(&'a self, mut g: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        let spare = std::mem::take(&mut g.spare);
        let mut group = std::mem::replace(&mut g.staged, spare);
        g.flushing = true;
        let file = Arc::clone(&g.file);
        let crash = Arc::clone(&g.crash);
        drop(g);

        let written = self
            .write_crashing(&crash, &file, &group.bytes)
            .and_then(|()| {
                let started = Instant::now();
                file.sync_data()?;
                self.fsync_latency.record_nanos(started.elapsed());
                self.fsyncs.inc();
                Ok(())
            });
        self.group_size.record(group.frames.len() as u64);

        let mut g = self.lock();
        g.flushing = false;
        let published = written.and_then(|()| {
            for &frame_len in &group.frames {
                let loc = RecordLoc {
                    seg_base: g.seg_base,
                    offset: g.seg_bytes,
                    frame_len,
                };
                let lsn = g.durable_lsn;
                g.index.insert(lsn, loc);
                g.durable_lsn += 1;
                g.seg_records += 1;
                g.seg_bytes += u64::from(frame_len);
            }
            if g.seg_bytes >= self.config.segment_bytes {
                self.rotate_locked(&mut g)?;
            }
            Ok(())
        });
        if let Err(LogError::Io(err)) = published {
            g.failed.get_or_insert((err.kind(), err.to_string()));
        }
        group.bytes.clear();
        group.frames.clear();
        g.spare = group;
        self.flushed.notify_all();
        g
    }

    /// Seals the active segment if `must_seal` holds once no flush is in
    /// flight (a leader owns the active file while it flushes). Fails on
    /// a dead log.
    fn seal_if<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner>,
        must_seal: impl Fn(&Inner) -> bool,
    ) -> Result<MutexGuard<'a, Inner>, LogError> {
        while g.flushing && must_seal(&g) {
            g = self.flushed.wait(g).expect("durable log poisoned");
        }
        g.check_alive()?;
        if must_seal(&g) {
            self.rotate_locked(&mut g)?;
        }
        Ok(g)
    }

    /// Seals the active segment (already fsynced) and starts a fresh one
    /// based at the first unwritten LSN — staged records land there. The
    /// caller holds the mutex with no flush in flight.
    fn rotate_locked(&self, g: &mut Inner) -> Result<(), LogError> {
        g.check_alive()?;
        debug_assert!(!g.flushing, "rotate under a leader's feet");
        let new_base = g.durable_lsn;
        let new_file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .read(true)
            .open(seg_path(&self.dir, new_base))?;
        self.sync_dir();
        g.file = Arc::new(new_file);
        let sealed = SealedSeg {
            base: g.seg_base,
            records: g.seg_records,
            path: seg_path(&self.dir, g.seg_base),
        };
        g.sealed.push(sealed);
        g.seg_base = new_base;
        g.seg_records = 0;
        g.seg_bytes = 0;
        Ok(())
    }

    /// Directory fsync so renames/creates survive the cut too; best
    /// effort on filesystems that refuse to open directories.
    fn sync_dir(&self) {
        if let Ok(handle) = File::open(&self.dir) {
            let _ = handle.sync_data();
        }
    }
}

/// Best-effort record count of a segment being discarded wholesale (used
/// only for the recovery report's truncation tally).
fn count_records(path: &Path, max_record_bytes: u32) -> u64 {
    let Ok(buf) = fs::read(path) else { return 0 };
    let mut offset = 0_usize;
    let mut count = 0_u64;
    loop {
        match parse_frame(&buf, offset, max_record_bytes) {
            Ok(Some(range)) => {
                offset = range.end;
                count += 1;
            }
            Ok(None) => break,
            Err(()) => {
                count += 1;
                break;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise definition the table is derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_is_the_ieee_polynomial_already_on_disk() {
        // The standard check value: logs written before the table
        // existed must still verify.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let data: Vec<u8> = (0..1000_u32).map(|i| (i * 31 % 251) as u8).collect();
        for len in [1, 7, 8, 9, 255, 256, 1000] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }
}
