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

use crate::checksum::crc32;
use crate::codec::{put, Reader};
use crate::disk::Disk;
use crate::error::{StorageError, StorageResult};
use rrq_obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// An append-only, checksummed log over a [`Disk`].
///
/// The log itself is cheap to clone (shared `Arc` device); callers serialize
/// appends externally (the KV store holds its own lock around WAL access).
pub struct Wal {
    disk: Arc<dyn Disk>,
    /// Records appended through this instance (metrics only).
    appended: AtomicU64,
    /// Records covered by the last successful [`Wal::sync`] (metrics only).
    synced: AtomicU64,
    obs: Obs,
}

impl Wal {
    /// Open a log over a device, with a dormant handle. Existing contents
    /// are left untouched; call [`Wal::scan`] to read them back.
    pub fn new(disk: Arc<dyn Disk>) -> Self {
        Wal::with_obs(disk, Obs::default())
    }

    /// [`Wal::new`] reporting to `obs`, its store's handle.
    pub fn with_obs(disk: Arc<dyn Disk>, obs: Obs) -> Self {
        Wal {
            disk,
            appended: AtomicU64::new(0),
            synced: AtomicU64::new(0),
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
        let start = self.disk.append(buf)?;
        self.appended.fetch_add(1, Ordering::AcqRel);
        self.obs.counter_inc("storage.wal.appends");
        if kind == RecordKind::Commit {
            self.obs.counter_inc("storage.wal.commit_records");
        }
        Ok(start + buf.len() as u64)
    }

    /// Force all appended records to stable storage.
    pub fn sync(&self) -> StorageResult<()> {
        // Snapshot the record count before the device force: everything
        // appended up to here is covered, later appends may not be.
        let covered = self.appended.load(Ordering::SeqCst);
        self.disk.sync()?;
        let prev = self.synced.fetch_max(covered, Ordering::SeqCst);
        let obs = &self.obs;
        obs.counter_inc("storage.wal.forces");
        obs.counter_add("storage.wal.records_synced", covered.saturating_sub(prev));
        Ok(())
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

    /// Atomically truncate the log to empty (after a checkpoint).
    pub fn reset(&self) -> StorageResult<()> {
        self.disk.reset(Vec::new())?;
        self.appended.store(0, Ordering::SeqCst);
        self.synced.store(0, Ordering::SeqCst);
        Ok(())
    }

    /// Scan the log from `start` and return every valid record.
    ///
    /// The scan stops cleanly at the first frame that is truncated, has a bad
    /// magic, or fails its CRC — that is the torn tail of the last crash, and
    /// by the write-ahead rule nothing after it can belong to a committed
    /// transaction. The offset where valid data ends is also returned.
    pub fn scan(&self, start: u64) -> StorageResult<(Vec<LogRecord>, u64)> {
        let mut records = Vec::new();
        let valid_end = self.scan_with(start, |lsn, txn, kind, payload| {
            records.push(LogRecord {
                lsn,
                txn,
                kind,
                payload: payload.to_vec(),
            });
            Ok(())
        })?;
        Ok((records, valid_end))
    }

    /// [`Wal::scan`] without materializing the records: `visit` is handed
    /// `(lsn, txn, kind, payload)` for every valid record, the payload
    /// borrowed from the read window, and the offset where valid data ends is
    /// returned. The device is read in windows of [`SCAN_WINDOW`] bytes (one
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
    use crate::disk::{CrashStyle, SimDisk};

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
        let (recs, valid) = wal.scan(0).unwrap();
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
        let (recs, _) = wal.scan(0).unwrap();
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
        let (recs, valid) = wal.scan(0).unwrap();
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
        let (recs, _) = wal.scan(0).unwrap();
        assert_eq!(recs.len(), 1, "corrupt second record must be rejected");
    }

    #[test]
    fn scan_from_midpoint() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(1, RecordKind::KvPut, b"first").unwrap();
        let l1 = wal.append(2, RecordKind::KvPut, b"second").unwrap();
        wal.sync().unwrap();
        let (recs, _) = wal.scan(l1).unwrap();
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
        let (recs, _) = wal.scan(0).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn custom_kinds_roundtrip() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(9, RecordKind::Custom(0x90), b"app").unwrap();
        wal.sync().unwrap();
        let (recs, _) = wal.scan(0).unwrap();
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
    fn empty_payload_records() {
        let disk = SimDisk::new();
        let wal = wal_on(&disk);
        wal.append(3, RecordKind::Commit, b"").unwrap();
        wal.sync().unwrap();
        let (recs, _) = wal.scan(0).unwrap();
        assert_eq!(recs[0].payload, Vec::<u8>::new());
    }
}
