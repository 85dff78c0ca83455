//! The write-ahead log.
//!
//! Every state change to a recoverable store is described by a [`LogRecord`]
//! appended here *before* the change is considered committed (§10: "there is
//! still the need to log updates"). Records are framed with a magic marker,
//! a length, and a CRC-32 over the body; a recovery scan replays records
//! until it reaches the end of the log or a frame that fails validation —
//! the torn tail left by a crash.
//!
//! A store writes one record per commit point: its `Commit` (or `Prepare`)
//! record carries the transaction's whole write set as an op list (see
//! [`crate::kv::WriteOp::encode_list`]), so one frame, one checksum and one
//! device write cover all of it. The log itself does not read payloads.
//!
//! Group commit (DeWitt et al., cited in the paper's §10 discussion of
//! logging) is the log's own: every force in the system is a
//! [`Wal::force_through`], and one device sync covers every record appended
//! before it, so committers that arrive during a force share the next one.
//! Nobody waits for company; a server that wants more commits per force
//! closes an epoch (DESIGN.md S26).
//!
//! A log that fails stops: the first failed append or sync fails the `Wal`
//! for good, and every later append, sync and force — the failed force's
//! waiters included — is [`StorageError::LogFailed`]. A record whose force
//! failed may be on the device or not; nothing appends behind it or forces
//! it, and the next open, which builds a new `Wal`, reads its fate and
//! forces what it read before acting on it. A refused [`Wal::reset`] fails
//! nothing: the device swaps all or nothing.

use crate::checksum::crc32;
use crate::codec::{put, Reader};
use crate::disk::Disk;
use crate::error::{StorageError, StorageResult};
use parking_lot::{Condvar, Mutex};
use rrq_obs::Obs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Frame marker; helps recovery distinguish "end of log" from garbage.
const MAGIC: u16 = 0x51CB; // "QCB" — queue control block

/// Header bytes preceding each record body: magic(2) + len(4) + crc(4).
const FRAME_HEADER: usize = 10;

/// Fixed bytes opening each record body: txn(8) + kind(1); the payload follows.
const BODY_PREFIX: usize = 9;

/// Bytes [`Wal::scan_with`] asks the device for at a time.
pub const SCAN_WINDOW: usize = 64 * 1024;

/// The kind of a log record.
///
/// `Prepare`/`Commit`/`Abort` delimit transaction outcomes, the first two
/// carrying the write set; `Custom` lets higher layers write their own
/// records through the same recovery machinery. The bytes of
/// `KvPut`/`KvDelete`/`KvMove` are the op tags inside a write set; a store
/// never writes them as records of their own, and its recovery refuses one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A key-value insert or update (an op tag).
    KvPut,
    /// A key-value deletion (an op tag).
    KvDelete,
    /// A key-value rename (an op tag): the two keys, the value stays where
    /// the log already has it.
    KvMove,
    /// The transaction may commit (2PC phase 1): the caller's token, then
    /// the write set.
    Prepare,
    /// The transaction committed: its write set (empty after a `Prepare`,
    /// which logged it) must be applied.
    Commit,
    /// The transaction aborted; its logged writes must be discarded.
    Abort,
    /// A checkpoint boundary record.
    Checkpoint,
    /// An application-defined record, identified by a subtype byte.
    Custom(u8),
}

impl RecordKind {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            RecordKind::KvPut => 1,
            RecordKind::KvDelete => 2,
            RecordKind::Prepare => 3,
            RecordKind::Commit => 4,
            RecordKind::Abort => 5,
            RecordKind::Checkpoint => 6,
            RecordKind::KvMove => 7,
            RecordKind::Custom(b) => {
                debug_assert!(b >= 0x80, "custom subtypes live in 0x80..=0xFF");
                b
            }
        }
    }

    pub(crate) fn from_byte(b: u8) -> StorageResult<Self> {
        match b {
            1 => Ok(RecordKind::KvPut),
            2 => Ok(RecordKind::KvDelete),
            3 => Ok(RecordKind::Prepare),
            4 => Ok(RecordKind::Commit),
            5 => Ok(RecordKind::Abort),
            6 => Ok(RecordKind::Checkpoint),
            7 => Ok(RecordKind::KvMove),
            b if b >= 0x80 => Ok(RecordKind::Custom(b)),
            b => Err(StorageError::Decode(format!("unknown record kind {b}"))),
        }
    }
}

/// A single log record as written to / read from the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Log sequence number — the byte offset of the record's frame.
    pub lsn: u64,
    /// Owning transaction token (0 for non-transactional records).
    pub txn: u64,
    /// Discriminant.
    pub kind: RecordKind,
    /// Kind-specific payload (already codec-encoded by the caller).
    pub payload: Vec<u8>,
}

/// [`Wal::force_through`]'s counters: `requests / groups` is the batching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Calls whose record was not yet durable when they arrived.
    pub requests: u64,
    /// Device syncs those calls issued (groups formed).
    pub groups: u64,
}

/// What [`Wal::force_through`] keeps under its lock.
#[derive(Default)]
struct Forcing {
    /// A caller is inside the device sync.
    active: bool,
    stats: GroupCommitStats,
}

/// An append-only, checksummed log over a [`Disk`]. Each append is one
/// device write; a store that needs log order to be commit order serializes
/// its appends itself (the KV store's append latch).
pub struct Wal {
    disk: Arc<dyn Disk>,
    /// Records appended through this instance (metrics only).
    appended: AtomicU64,
    /// Records covered by the last successful [`Wal::sync`] (metrics only).
    synced: AtomicU64,
    /// Log length known durable: the device length when the last successful
    /// [`Wal::sync`] began. Restarts at zero with [`Wal::reset`].
    durable: AtomicU64,
    /// Set by the first failed append or sync; never cleared.
    failed: AtomicBool,
    forcing: Mutex<Forcing>,
    /// Wakes the callers that wait for a force in flight to end.
    forced: Condvar,
    obs: Obs,
}

impl Wal {
    /// Open a log over a device, with a dormant handle. Existing contents
    /// are left untouched; call [`Wal::scan_with`] to read them back.
    pub fn new(disk: Arc<dyn Disk>) -> Self {
        Wal::with_obs(disk, Obs::default())
    }

    /// [`Wal::new`] reporting to `obs`, its store's handle.
    pub fn with_obs(disk: Arc<dyn Disk>, obs: Obs) -> Self {
        Wal {
            disk,
            appended: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            forcing: Mutex::default(),
            forced: Condvar::new(),
            obs,
        }
    }

    /// The underlying device (for stats and crash injection in tests).
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// The observation handle this log (and its store) reports to.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Append a record; returns its LSN. Not durable until [`Wal::sync`].
    pub fn append(&self, txn: u64, kind: RecordKind, payload: &[u8]) -> StorageResult<u64> {
        let mut buf = Vec::with_capacity(FRAME_HEADER + BODY_PREFIX + payload.len());
        let end = self.append_with(&mut buf, txn, kind, |b| b.extend_from_slice(payload))?;
        Ok(end - buf.len() as u64)
    }

    /// Append a record whose payload `payload` writes in place (it must only
    /// append), framed in `buf` — cleared first; its capacity is what carries
    /// over from record to record — and handed to the device as one write.
    /// Returns the offset just past the record, what a force must reach to
    /// cover it. The frame is laid out once: length and CRC are patched into
    /// the header after the payload is known. Not durable until
    /// [`Wal::sync`].
    pub fn append_with(
        &self,
        buf: &mut Vec<u8>,
        txn: u64,
        kind: RecordKind,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> StorageResult<u64> {
        self.check()?;
        buf.clear();
        put::u16(buf, MAGIC);
        put::u32(buf, 0); // body length, patched below
        put::u32(buf, 0); // body crc, patched below
        put::u64(buf, txn);
        put::u8(buf, kind.to_byte());
        payload(buf);
        let body_len = (buf.len() - FRAME_HEADER) as u32;
        buf[2..6].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&buf[FRAME_HEADER..]);
        buf[6..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        let start = self.disk.append(buf).map_err(|e| self.fail(e))?;
        self.appended.fetch_add(1, Ordering::AcqRel);
        self.obs.counter_inc("storage.wal.appends");
        if kind == RecordKind::Commit {
            self.obs.counter_inc("storage.wal.commit_records");
        }
        Ok(start + buf.len() as u64)
    }

    /// Force all appended records to stable storage and publish the durable
    /// watermark.
    pub fn sync(&self) -> StorageResult<()> {
        self.check()?;
        // Snapshot before the device force: everything appended up to here
        // is covered, later appends may not be.
        let covered = self.appended.load(Ordering::SeqCst);
        let end = self.disk.len();
        self.disk.sync().map_err(|e| self.fail(e))?;
        self.durable.fetch_max(end, Ordering::SeqCst);
        let prev = self.synced.fetch_max(covered, Ordering::SeqCst);
        let obs = &self.obs;
        obs.counter_inc("storage.wal.forces");
        obs.counter_add("storage.wal.records_synced", covered.saturating_sub(prev));
        Ok(())
    }

    /// Block until log bytes `[0, end)` are durable, `end` being what
    /// [`Wal::append_with`] returned. A record another force covered costs one
    /// atomic load; otherwise the caller waits out the force in flight and
    /// forces if still uncovered. Waiters wake together, so a group is all who
    /// arrived during one force (a lock held across the sync forms smaller
    /// ones, EXPERIMENTS.md E35). A failed sync fails the log and its waiters;
    /// a record durable before the failure still returns `Ok`.
    pub fn force_through(&self, end: u64) -> StorageResult<()> {
        if self.durable.load(Ordering::SeqCst) >= end {
            return Ok(());
        }
        self.obs.counter_inc("storage.gc.sync_requests");
        let mut forcing = self.forcing.lock();
        forcing.stats.requests += 1;
        let mut waited = false;
        while self.durable.load(Ordering::SeqCst) < end {
            if forcing.active {
                waited = true;
                self.forced.wait(&mut forcing);
                continue;
            }
            forcing.active = true;
            drop(forcing);
            let synced = self.sync();
            forcing = self.forcing.lock();
            forcing.active = false;
            self.forced.notify_all();
            synced?;
            forcing.stats.groups += 1;
            return Ok(());
        }
        if waited {
            // Covered by the force it waited out.
            self.obs.counter_inc("storage.gc.follower_wakeups");
        }
        Ok(())
    }

    /// [`StorageError::LogFailed`] once an append or a sync has failed: the
    /// log refuses everything until its store reopens.
    pub fn check(&self) -> StorageResult<()> {
        if self.failed.load(Ordering::Acquire) {
            return Err(StorageError::LogFailed);
        }
        Ok(())
    }

    /// Fail the log for good, passing on the device's error `e`.
    fn fail(&self, e: StorageError) -> StorageError {
        self.failed.store(true, Ordering::Release);
        e
    }

    /// Snapshot of the [`Wal::force_through`] batching counters.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.forcing.lock().stats
    }

    /// Records appended through this instance (metrics bookkeeping).
    pub fn records_appended(&self) -> u64 {
        self.appended.load(Ordering::SeqCst)
    }

    /// Total log length in bytes.
    pub fn len(&self) -> u64 {
        self.disk.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically truncate the log to empty (after a checkpoint). Offsets
    /// restart at zero, and so does the durable watermark. The caller keeps
    /// appends and forces out until it returns (the store's checkpoint gate).
    pub fn reset(&self) -> StorageResult<()> {
        self.disk.reset(Vec::new())?;
        self.appended.store(0, Ordering::SeqCst);
        self.synced.store(0, Ordering::SeqCst);
        self.durable.store(0, Ordering::SeqCst);
        Ok(())
    }

    /// Scan the log from `start`: `visit` is handed `(lsn, txn, kind,
    /// payload)` for every valid record (the fields of a [`LogRecord`]), the
    /// payload borrowed from the read window, and the offset where valid data
    /// ends is returned.
    ///
    /// The scan stops cleanly at the first frame that is truncated, has a bad
    /// magic, or fails its CRC — that is the torn tail of the last crash, and
    /// by the write-ahead rule nothing after it can belong to a committed
    /// transaction. The device is read in windows of [`SCAN_WINDOW`] bytes (one
    /// larger read only for a single frame bigger than that), so scanning
    /// holds a bounded buffer however long the log is. A frame that straddles
    /// a window's end is re-read whole at the start of the next window.
    pub fn scan_with(
        &self,
        start: u64,
        mut visit: impl FnMut(u64, u64, RecordKind, &[u8]) -> StorageResult<()>,
    ) -> StorageResult<u64> {
        let end = self.disk.len();
        let mut off = start;
        let mut want = SCAN_WINDOW;
        while off + FRAME_HEADER as u64 <= end {
            let window = self.disk.read(off, want.min((end - off) as usize))?;
            want = SCAN_WINDOW;
            let mut pos = 0;
            while let Some(header) = window.get(pos..pos + FRAME_HEADER) {
                let lsn = off + pos as u64;
                if header[..2] != MAGIC.to_le_bytes() {
                    return Ok(lsn);
                }
                let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
                let crc = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
                let frame_len = FRAME_HEADER + len as usize;
                if lsn + frame_len as u64 > end {
                    return Ok(lsn); // truncated tail
                }
                let Some(body) = window.get(pos + FRAME_HEADER..pos + frame_len) else {
                    want = frame_len.max(SCAN_WINDOW); // straddles the window: refill from `lsn`
                    break;
                };
                if crc32(body) != crc {
                    return Ok(lsn); // torn write
                }
                // Recovery must never panic: a checksummed body too short for
                // its fixed prefix, or of unknown kind, is a corrupt frame.
                let mut r = Reader::new(body);
                let head = r
                    .u64()
                    .and_then(|txn| Ok((txn, RecordKind::from_byte(r.u8()?)?)));
                let (txn, kind) = head.map_err(|e| StorageError::Corrupt {
                    offset: lsn,
                    detail: e.to_string(),
                })?;
                visit(lsn, txn, kind, &body[BODY_PREFIX..])?;
                pos += frame_len;
            }
            off += pos as u64;
        }
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every valid record from `start`, copied out, and where valid data
    /// ends.
    fn records(wal: &Wal, start: u64) -> (Vec<LogRecord>, u64) {
        let mut records = Vec::new();
        let valid_end = wal
            .scan_with(start, |lsn, txn, kind, payload| {
                records.push(LogRecord {
                    lsn,
                    txn,
                    kind,
                    payload: payload.to_vec(),
                });
                Ok(())
            })
            .unwrap();
        (records, valid_end)
    }
    use crate::disk::{CrashStyle, SimDisk};
    use std::sync::Barrier;
    use std::time::Duration;

    fn wal_on(disk: &SimDisk) -> Wal {
        Wal::new(Arc::new(disk.clone()))
    }

    #[test]
    fn append_scan_roundtrip() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        let l0 = wal.append(1, RecordKind::KvPut, b"k=v").unwrap();
        let l1 = wal.append(1, RecordKind::Commit, b"").unwrap();
        assert!(l1 > l0);
        wal.sync().unwrap();
        let (recs, valid) = records(&wal, 0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].txn, 1);
        assert_eq!(recs[0].kind, RecordKind::KvPut);
        assert_eq!(recs[0].payload, b"k=v");
        assert_eq!(recs[1].kind, RecordKind::Commit);
        assert_eq!(valid, wal.len());
    }

    #[test]
    fn unsynced_records_vanish_on_crash() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::KvPut, b"durable").unwrap();
        wal.sync().unwrap();
        wal.append(2, RecordKind::KvPut, b"volatile").unwrap();
        disk.crash(CrashStyle::DropVolatile);
        let (recs, _) = records(&wal, 0);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"durable");
    }

    #[test]
    fn torn_tail_stops_scan_without_error() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::KvPut, b"good record").unwrap();
        wal.sync().unwrap();
        wal.append(2, RecordKind::KvPut, b"torn record").unwrap();
        // Keep only part of the second frame, with its last byte corrupted.
        disk.crash(CrashStyle::Torn { keep: 12 });
        let (recs, valid) = records(&wal, 0);
        assert_eq!(recs.len(), 1);
        assert!(valid < wal.len());
    }

    #[test]
    fn torn_crc_detected_even_when_length_intact() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::KvPut, b"aaaa").unwrap();
        wal.sync().unwrap();
        let full = disk.len() as usize;
        wal.append(2, RecordKind::KvPut, b"bbbb").unwrap();
        // Tear inside the *body* of the second record: full frame length
        // survives but one payload byte is flipped.
        let second_frame_len = disk.len() as usize - full;
        disk.crash(CrashStyle::Torn {
            keep: second_frame_len,
        });
        let (recs, _) = records(&wal, 0);
        assert_eq!(recs.len(), 1, "corrupt second record must be rejected");
    }

    #[test]
    fn scan_from_midpoint() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::KvPut, b"first").unwrap();
        let l1 = wal.append(2, RecordKind::KvPut, b"second").unwrap();
        wal.sync().unwrap();
        let (recs, _) = records(&wal, l1);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"second");
    }

    #[test]
    fn reset_empties_log() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::KvPut, b"x").unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        let (recs, _) = records(&wal, 0);
        assert!(recs.is_empty());
    }

    #[test]
    fn custom_kinds_roundtrip() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(9, RecordKind::Custom(0x90), b"app").unwrap();
        wal.sync().unwrap();
        let (recs, _) = records(&wal, 0);
        assert_eq!(recs[0].kind, RecordKind::Custom(0x90));
    }

    #[test]
    fn kind_byte_roundtrip_all() {
        for k in [
            RecordKind::KvPut,
            RecordKind::KvDelete,
            RecordKind::KvMove,
            RecordKind::Prepare,
            RecordKind::Commit,
            RecordKind::Abort,
            RecordKind::Checkpoint,
            RecordKind::Custom(0xAB),
        ] {
            assert_eq!(RecordKind::from_byte(k.to_byte()).unwrap(), k);
        }
        assert!(RecordKind::from_byte(0).is_err());
        assert!(RecordKind::from_byte(8).is_err());
    }

    #[test]
    fn single_caller_syncs_once() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        wal.force_through(wal.len()).unwrap();
        assert_eq!(disk.stats().syncs, 1);
        assert_eq!(disk.volatile_len(), 0);
        let s = wal.group_commit_stats();
        assert_eq!((s.requests, s.groups), (1, 1));
    }

    #[test]
    fn covered_target_returns_without_new_sync() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        let t = wal.len();
        wal.force_through(t).unwrap();
        wal.force_through(t).unwrap();
        assert_eq!(disk.stats().syncs, 1, "second call was already durable");
    }

    #[test]
    fn slow_force_batches_concurrent_committers() {
        // Eight committers append and ask for durability together; a force
        // takes 5 ms, so whoever does not force first queues behind that
        // sync and is covered by the next one.
        let disk = SimDisk::new();
        disk.set_latency(Duration::from_millis(5), Duration::ZERO);
        let wal = Arc::new(wal_on(&disk));
        let start = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let (wal, start) = (Arc::clone(&wal), Arc::clone(&start));
                let disk = disk.clone();
                std::thread::spawn(move || {
                    wal.append(i, RecordKind::Commit, &[]).unwrap();
                    let target = wal.len();
                    start.wait();
                    wal.force_through(target).unwrap();
                    assert!(disk.durable_len() >= target, "durable on return");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = wal.group_commit_stats();
        assert!(
            s.groups < s.requests,
            "8 committers behind a 5ms force must share groups: {s:?}"
        );
    }

    #[test]
    fn truncate_resets_watermark() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        wal.force_through(wal.len()).unwrap();
        wal.reset().unwrap();
        wal.append(2, RecordKind::Commit, &[]).unwrap();
        wal.force_through(wal.len()).unwrap();
        assert_eq!(disk.volatile_len(), 0, "post-truncate record forced");
    }

    #[test]
    fn truncating_one_log_leaves_sibling_watermark_intact() {
        // Each log owns its watermark: a checkpoint truncating log A must
        // reset only A's. A shared reset would make log B's already-durable
        // records look volatile — a commit racing the checkpoint on B would
        // re-force needlessly.
        let (disk_a, disk_b) = (SimDisk::new(), SimDisk::new());
        let wal_a = wal_on(&disk_a);
        let wal_b = wal_on(&disk_b);
        wal_b.append(1, RecordKind::Commit, &[]).unwrap();
        let b_target = wal_b.len();
        wal_b.force_through(b_target).unwrap();
        let b_syncs = disk_b.stats().syncs;

        // Checkpoint truncates log A only.
        wal_a.append(2, RecordKind::Commit, &[]).unwrap();
        wal_a.force_through(wal_a.len()).unwrap();
        wal_a.reset().unwrap();

        // Sibling B's watermark still covers its commit record: no new
        // device sync is needed to prove it durable.
        wal_b.force_through(b_target).unwrap();
        assert_eq!(
            disk_b.stats().syncs,
            b_syncs,
            "sibling log re-forced after a checkpoint it was not part of"
        );
        // And A's own watermark did reset: its next record is forced.
        wal_a.append(3, RecordKind::Commit, &[]).unwrap();
        wal_a.force_through(wal_a.len()).unwrap();
        assert_eq!(disk_a.volatile_len(), 0);
    }

    #[test]
    fn sync_error_is_surfaced_not_swallowed() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        let durable = wal.len();
        wal.force_through(durable).unwrap();
        wal.append(2, RecordKind::Commit, &[]).unwrap();
        let target = wal.len();
        disk.fail();
        assert_eq!(wal.force_through(target), Err(StorageError::DeviceFailed));
        assert_eq!(wal.check(), Err(StorageError::LogFailed));
        // The log stays failed after the device is back: nothing forces the
        // failed record, and nothing is appended behind it.
        disk.repair();
        assert_eq!(wal.force_through(target), Err(StorageError::LogFailed));
        assert_eq!(wal.sync(), Err(StorageError::LogFailed));
        assert_eq!(
            wal.append(3, RecordKind::Commit, &[]),
            Err(StorageError::LogFailed)
        );
        assert_eq!(disk.len(), target, "no byte appended after the failure");
        assert_eq!(
            disk.durable_len(),
            durable,
            "the failed record stays unforced"
        );
        // A record made durable before the failure is still durable.
        wal.force_through(durable).unwrap();
        // Only a new `Wal` over the device, as a reopen builds, clears it.
        let reopened = wal_on(&disk);
        reopened.force_through(target).unwrap();
        assert_eq!(disk.volatile_len(), 0);
    }

    #[test]
    fn a_failed_append_fails_the_log() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        disk.fail();
        let mut buf = Vec::new();
        let refused = wal.append_with(&mut buf, 1, RecordKind::Commit, |_| {});
        assert_eq!(refused, Err(StorageError::DeviceFailed));
        disk.repair();
        assert_eq!(
            wal.append(1, RecordKind::Commit, &[]),
            Err(StorageError::LogFailed)
        );
        assert_eq!(wal.force_through(1), Err(StorageError::LogFailed));
        assert!(disk.is_empty());
    }

    #[test]
    fn the_waiters_of_a_failed_force_fail_with_it() {
        // A force in flight on a slow device fails under the waiters queued
        // behind it: none of them forces the failed records itself.
        let disk = SimDisk::new();
        disk.set_latency(Duration::from_millis(200), Duration::ZERO);
        let wal = Arc::new(wal_on(&disk));
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        let forcer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.force_through(wal.len()))
        };
        while !wal.forcing.lock().active {
            std::thread::yield_now();
        }
        disk.fail();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || wal.force_through(wal.len()))
            })
            .collect();
        assert_eq!(forcer.join().unwrap(), Err(StorageError::DeviceFailed));
        disk.repair();
        for w in waiters {
            assert_eq!(w.join().unwrap(), Err(StorageError::LogFailed));
        }
        assert_eq!(disk.stats().syncs, 0);
        assert_eq!(disk.durable_len(), 0);
    }

    #[test]
    fn empty_payload_records() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(3, RecordKind::Commit, b"").unwrap();
        wal.sync().unwrap();
        let (recs, _) = records(&wal, 0);
        assert_eq!(recs[0].payload, Vec::<u8>::new());
    }
}
