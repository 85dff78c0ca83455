//! Simulated stable-storage devices.
//!
//! The paper's protocols hinge on one physical fact: data survives a failure
//! only if it reached *stable storage* before the crash (§2, §4.1 "a queue is
//! a stable memory area"). [`SimDisk`] models exactly that boundary: appends
//! land in a volatile buffer, [`Disk::sync`] moves the buffer to the durable
//! region, and [`SimDisk::crash`] throws the volatile region away — optionally
//! leaving a *torn* (partially written, corrupted) tail so that recovery code
//! must prove it tolerates half-written records.
//!
//! Keeping the device in memory makes a crash+recovery cycle take
//! microseconds, so tests can run thousands of deterministic crash schedules.

use crate::error::{StorageError, StorageResult};
use parking_lot::Mutex;
use std::sync::Arc;

/// Byte-level counters a device keeps for benchmarking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of `append` calls.
    pub appends: u64,
    /// Total bytes appended.
    pub bytes_appended: u64,
    /// Number of `sync` calls (each models a forced I/O).
    pub syncs: u64,
    /// Number of `read` calls.
    pub reads: u64,
    /// Number of crashes injected.
    pub crashes: u64,
}

/// An append-only stable-storage device.
///
/// The log and checkpoint stores are both built on this narrow interface so
/// that the crash-simulating [`SimDisk`] and the plain [`MemDisk`] are
/// interchangeable.
pub trait Disk: Send + Sync {
    /// Append bytes, returning the offset at which they begin.
    ///
    /// The bytes are *not* durable until [`Disk::sync`] returns.
    fn append(&self, data: &[u8]) -> StorageResult<u64>;

    /// Read `len` bytes starting at `offset`.
    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>>;

    /// Total length (durable + volatile).
    fn len(&self) -> u64;

    /// True when the device holds no bytes at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Force all volatile bytes to stable storage.
    fn sync(&self) -> StorageResult<()>;

    /// Atomically replace the entire contents (used for checkpoint swap and
    /// log truncation). The new contents are immediately durable, modelling
    /// a write-temp-then-rename sequence.
    fn reset(&self, contents: Vec<u8>) -> StorageResult<()>;

    /// Cut the device to its first `len` bytes, in place: recovery drops a
    /// torn tail this way without copying the valid prefix. Bytes that
    /// survive keep their durability status; a `len` at or past the end
    /// changes nothing (as `Vec::truncate`).
    fn truncate(&self, len: u64) -> StorageResult<()>;

    /// Snapshot of the device's I/O counters.
    fn stats(&self) -> DiskStats;
}

#[derive(Debug, Default)]
struct MemInner {
    data: Vec<u8>,
    stats: DiskStats,
}

/// A trivially durable in-memory device: every append is immediately stable.
///
/// Useful for benchmarks that want storage cost without crash modelling.
#[derive(Debug, Clone, Default)]
pub struct MemDisk {
    inner: Arc<Mutex<MemInner>>,
}

impl MemDisk {
    /// Create an empty device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Disk for MemDisk {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let mut g = self.inner.lock();
        let off = g.data.len() as u64;
        g.data.extend_from_slice(data);
        g.stats.appends += 1;
        g.stats.bytes_appended += data.len() as u64;
        Ok(off)
    }

    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        let mut g = self.inner.lock();
        g.stats.reads += 1;
        let size = g.data.len() as u64;
        let end = offset
            .checked_add(len as u64)
            .filter(|&e| e <= size)
            .ok_or(StorageError::OutOfBounds { offset, len, size })?;
        Ok(g.data[offset as usize..end as usize].to_vec())
    }

    fn len(&self) -> u64 {
        self.inner.lock().data.len() as u64
    }

    fn sync(&self) -> StorageResult<()> {
        self.inner.lock().stats.syncs += 1;
        Ok(())
    }

    fn reset(&self, contents: Vec<u8>) -> StorageResult<()> {
        let mut g = self.inner.lock();
        g.data = contents;
        Ok(())
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        self.inner.lock().data.truncate(len);
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        self.inner.lock().stats
    }
}

/// How a crash treats the volatile (unsynced) tail of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// All unsynced bytes vanish — a clean power cut between I/Os.
    DropVolatile,
    /// The first `keep` unsynced bytes survive and the final surviving byte
    /// is bit-flipped — a torn write in the middle of a sector.
    Torn {
        /// Number of volatile bytes that (partially) reached the platter.
        keep: usize,
    },
}

/// Named torn-write shapes for crash injection.
///
/// [`CrashStyle::Torn`] wants an absolute byte count, which only makes sense
/// when the caller knows the device's exact volatile length. A
/// `TornWriteMode` instead names *how* the unsynced tail is torn and lets
/// [`SimDisk::crash_torn`] compute the count from whatever happens to be
/// unsynced at crash time — which is what a fault script needs. Each variant
/// must be caught by the WAL's frame validation (magic / length / CRC) on
/// recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TornWriteMode {
    /// Roughly half of the unsynced bytes reach the platter: a frame
    /// truncated mid-body, caught by the length check (or the CRC when the
    /// cut lands inside the final frame's body).
    Midway,
    /// Every unsynced byte lands but the last one is corrupted: frame
    /// length intact, so only the CRC can reject it.
    FullLengthCorrupt,
    /// Only a few leading bytes land: a frame header without a body,
    /// caught by the truncated-tail check.
    HeaderOnly,
}

impl TornWriteMode {
    /// All variants, for sweep generators and per-variant tests.
    pub const ALL: [TornWriteMode; 3] = [
        TornWriteMode::Midway,
        TornWriteMode::FullLengthCorrupt,
        TornWriteMode::HeaderOnly,
    ];

    /// How many of `volatile` unsynced bytes survive under this mode.
    pub fn keep_of(self, volatile: usize) -> usize {
        match self {
            TornWriteMode::Midway => volatile.div_ceil(2),
            TornWriteMode::FullLengthCorrupt => volatile,
            TornWriteMode::HeaderOnly => volatile.min(6),
        }
    }

    /// Stable name used by the fault-script codec.
    pub fn name(self) -> &'static str {
        match self {
            TornWriteMode::Midway => "torn-midway",
            TornWriteMode::FullLengthCorrupt => "torn-full",
            TornWriteMode::HeaderOnly => "torn-header",
        }
    }

    /// Inverse of [`TornWriteMode::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }
}

#[derive(Debug, Default)]
struct SimInner {
    durable: Vec<u8>,
    volatile: Vec<u8>,
    failed: bool,
    resets_failed: bool,
    stats: DiskStats,
}

/// The crash-simulating stable store.
///
/// Cloning shares the underlying device (it is an `Arc`), which is how a
/// "restarted process" reopens the same disk after [`SimDisk::crash`].
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    inner: Arc<Mutex<SimInner>>,
}

impl SimDisk {
    /// Create an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate a crash: volatile bytes are discarded per `style` and the
    /// device remains usable (a restart re-reads the durable prefix).
    pub fn crash(&self, style: CrashStyle) {
        let mut g = self.inner.lock();
        g.stats.crashes += 1;
        match style {
            CrashStyle::DropVolatile => g.volatile.clear(),
            CrashStyle::Torn { keep } => {
                let keep = keep.min(g.volatile.len());
                g.volatile.truncate(keep);
                if keep > 0 {
                    g.volatile[keep - 1] ^= 0x80;
                }
                let torn: Vec<u8> = std::mem::take(&mut g.volatile);
                g.durable.extend_from_slice(&torn);
            }
        }
        // After DropVolatile nothing moves; after Torn the surviving corrupt
        // prefix is durable (it physically hit the medium).
        if style == CrashStyle::DropVolatile {
            // nothing else to do
        }
    }

    /// Crash with a torn tail shaped by `mode`: the surviving byte count is
    /// computed from the volatile length under the device lock, so the tear
    /// always lands inside the unsynced region. With nothing unsynced this
    /// degrades to a clean [`CrashStyle::DropVolatile`]-equivalent crash —
    /// durable bytes are never corrupted (they already hit the platter).
    pub fn crash_torn(&self, mode: TornWriteMode) {
        let mut g = self.inner.lock();
        g.stats.crashes += 1;
        let keep = mode.keep_of(g.volatile.len());
        g.volatile.truncate(keep);
        if keep > 0 {
            g.volatile[keep - 1] ^= 0x80;
        }
        let torn: Vec<u8> = std::mem::take(&mut g.volatile);
        g.durable.extend_from_slice(&torn);
    }

    /// Mark the device as failed: every subsequent operation returns
    /// [`StorageError::DeviceFailed`] until [`SimDisk::repair`].
    pub fn fail(&self) {
        self.inner.lock().failed = true;
    }

    /// Make only [`Disk::reset`] fail (the rename of a write-temp-then-rename
    /// swap is refused) until [`SimDisk::repair`]; appends, reads and syncs
    /// keep working.
    pub fn fail_resets(&self) {
        self.inner.lock().resets_failed = true;
    }

    /// Clear a [`SimDisk::fail`] or [`SimDisk::fail_resets`] condition.
    pub fn repair(&self) {
        let mut g = self.inner.lock();
        g.failed = false;
        g.resets_failed = false;
    }

    /// Number of bytes currently durable (synced).
    pub fn durable_len(&self) -> u64 {
        self.inner.lock().durable.len() as u64
    }

    /// Number of bytes currently volatile (would be lost by a crash).
    pub fn volatile_len(&self) -> u64 {
        self.inner.lock().volatile.len() as u64
    }

    fn check(&self, g: &SimInner) -> StorageResult<()> {
        if g.failed {
            Err(StorageError::DeviceFailed)
        } else {
            Ok(())
        }
    }
}

impl Disk for SimDisk {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let mut g = self.inner.lock();
        self.check(&g)?;
        let off = (g.durable.len() + g.volatile.len()) as u64;
        g.volatile.extend_from_slice(data);
        g.stats.appends += 1;
        g.stats.bytes_appended += data.len() as u64;
        Ok(off)
    }

    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        let mut g = self.inner.lock();
        self.check(&g)?;
        g.stats.reads += 1;
        let size = (g.durable.len() + g.volatile.len()) as u64;
        let end = offset
            .checked_add(len as u64)
            .filter(|&e| e <= size)
            .ok_or(StorageError::OutOfBounds { offset, len, size })?;
        let dlen = g.durable.len() as u64;
        let mut out = Vec::with_capacity(len);
        if offset < dlen {
            let stop = end.min(dlen);
            out.extend_from_slice(&g.durable[offset as usize..stop as usize]);
        }
        if end > dlen {
            let start = offset.max(dlen) - dlen;
            out.extend_from_slice(&g.volatile[start as usize..(end - dlen) as usize]);
        }
        Ok(out)
    }

    fn len(&self) -> u64 {
        let g = self.inner.lock();
        (g.durable.len() + g.volatile.len()) as u64
    }

    fn sync(&self) -> StorageResult<()> {
        let mut g = self.inner.lock();
        self.check(&g)?;
        // Keep the volatile buffer's capacity: a force follows nearly every
        // append, and a taken buffer would re-grow from nothing each time.
        let inner = &mut *g;
        inner.durable.extend_from_slice(&inner.volatile);
        inner.volatile.clear();
        inner.stats.syncs += 1;
        Ok(())
    }

    fn reset(&self, contents: Vec<u8>) -> StorageResult<()> {
        let mut g = self.inner.lock();
        self.check(&g)?;
        if g.resets_failed {
            return Err(StorageError::DeviceFailed);
        }
        // The device keeps its medium: an image that fits is copied over it,
        // so putting one image back again and again (a benchmark's rounds, a
        // test's crash loop) allocates nothing that outlives this call — a
        // device-sized block adopted on every reset and freed on the next
        // leaves the allocator a fresh hole each time.
        if contents.len() <= g.durable.capacity() {
            g.durable.clear();
            g.durable.extend_from_slice(&contents);
        } else {
            g.durable = contents;
        }
        g.volatile.clear();
        Ok(())
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        let mut g = self.inner.lock();
        self.check(&g)?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let keep_volatile = len.saturating_sub(g.durable.len());
        g.volatile.truncate(keep_volatile);
        g.durable.truncate(len);
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        self.inner.lock().stats
    }
}

/// A device wrapper that charges a fixed latency per [`Disk::sync`] (and,
/// opt-in, per [`READ_SECTOR`] bytes a [`Disk::read`] delivers).
///
/// [`SimDisk`]'s sync is a memcpy, so a force per commit and a force per
/// group cost the same and a benchmark cannot see batching win. Real log
/// devices pay a rotation / flush delay per force — this wrapper models that
/// cost so experiments (E21, E22) measure the sync *count* the way hardware
/// would.
///
/// Forces are serialized: a log device has one flush channel, so two threads
/// syncing "at the same time" still pay two delays back to back. Without
/// that, unbatched syncing would scale linearly with committer threads and
/// no benchmark could see why group commit exists. Reads, when given a
/// latency via [`LatencyDisk::with_read_latency`], go through the same
/// single command channel — which is what lets a recovery benchmark see the
/// point of one scan thread per log device: reads on *different* devices
/// overlap, reads on the same device queue. The read charge is per sector
/// delivered, not per call, so a scan costs the bytes it moves however it
/// windows its reads.
pub struct LatencyDisk {
    inner: Arc<dyn Disk>,
    sync_latency: std::time::Duration,
    read_latency: std::time::Duration,
    flush_channel: Mutex<()>,
}

/// Unit of the [`LatencyDisk`] read charge.
pub const READ_SECTOR: usize = 512;

impl LatencyDisk {
    /// Wrap `inner`, sleeping `sync_latency` on every sync.
    pub fn new(inner: Arc<dyn Disk>, sync_latency: std::time::Duration) -> Self {
        LatencyDisk {
            inner,
            sync_latency,
            read_latency: std::time::Duration::ZERO,
            flush_channel: Mutex::new(()),
        }
    }

    /// Also sleep `read_latency` per started [`READ_SECTOR`] of every read,
    /// at least once per read (default: reads are free).
    pub fn with_read_latency(mut self, read_latency: std::time::Duration) -> Self {
        self.read_latency = read_latency;
        self
    }
}

impl Disk for LatencyDisk {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        self.inner.append(data)
    }

    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        if !self.read_latency.is_zero() {
            let _channel = self.flush_channel.lock();
            let sectors = u32::try_from(len.div_ceil(READ_SECTOR).max(1)).unwrap_or(u32::MAX);
            std::thread::sleep(self.read_latency.saturating_mul(sectors));
        }
        self.inner.read(offset, len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> StorageResult<()> {
        let _flush = self.flush_channel.lock();
        if !self.sync_latency.is_zero() {
            std::thread::sleep(self.sync_latency);
        }
        self.inner.sync()
    }

    fn reset(&self, contents: Vec<u8>) -> StorageResult<()> {
        self.inner.reset(contents)
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.inner.truncate(len)
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdisk_append_read_roundtrip() {
        let d = MemDisk::new();
        let off = d.append(b"hello").unwrap();
        assert_eq!(off, 0);
        let off2 = d.append(b"world").unwrap();
        assert_eq!(off2, 5);
        assert_eq!(d.read(0, 10).unwrap(), b"helloworld");
        assert_eq!(d.read(5, 5).unwrap(), b"world");
    }

    #[test]
    fn memdisk_out_of_bounds_read() {
        let d = MemDisk::new();
        d.append(b"abc").unwrap();
        assert!(matches!(
            d.read(2, 5),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn simdisk_crash_drops_unsynced_bytes() {
        let d = SimDisk::new();
        d.append(b"synced").unwrap();
        d.sync().unwrap();
        d.append(b"lost").unwrap();
        assert_eq!(d.len(), 10);
        d.crash(CrashStyle::DropVolatile);
        assert_eq!(d.len(), 6);
        assert_eq!(d.read(0, 6).unwrap(), b"synced");
    }

    #[test]
    fn simdisk_sync_makes_bytes_durable() {
        let d = SimDisk::new();
        d.append(b"abc").unwrap();
        assert_eq!(d.volatile_len(), 3);
        d.sync().unwrap();
        assert_eq!(d.volatile_len(), 0);
        assert_eq!(d.durable_len(), 3);
        d.crash(CrashStyle::DropVolatile);
        assert_eq!(d.read(0, 3).unwrap(), b"abc");
    }

    #[test]
    fn simdisk_torn_crash_keeps_corrupt_prefix() {
        let d = SimDisk::new();
        d.append(b"good").unwrap();
        d.sync().unwrap();
        d.append(b"partial").unwrap();
        d.crash(CrashStyle::Torn { keep: 3 });
        assert_eq!(d.len(), 7);
        let tail = d.read(4, 3).unwrap();
        // first two torn bytes intact, last one flipped
        assert_eq!(&tail[..2], b"pa");
        assert_eq!(tail[2], b'r' ^ 0x80);
    }

    #[test]
    fn torn_mode_keep_counts() {
        assert_eq!(TornWriteMode::Midway.keep_of(10), 5);
        assert_eq!(TornWriteMode::Midway.keep_of(7), 4);
        assert_eq!(TornWriteMode::Midway.keep_of(1), 1);
        assert_eq!(TornWriteMode::FullLengthCorrupt.keep_of(9), 9);
        assert_eq!(TornWriteMode::HeaderOnly.keep_of(100), 6);
        assert_eq!(TornWriteMode::HeaderOnly.keep_of(3), 3);
        for m in TornWriteMode::ALL {
            assert_eq!(m.keep_of(0), 0);
            assert_eq!(TornWriteMode::from_name(m.name()), Some(m));
        }
        assert_eq!(TornWriteMode::from_name("torn-sideways"), None);
    }

    #[test]
    fn crash_torn_tears_only_the_volatile_tail() {
        let d = SimDisk::new();
        d.append(b"durable!").unwrap();
        d.sync().unwrap();
        d.append(b"0123456789").unwrap();
        d.crash_torn(TornWriteMode::Midway);
        // Half the volatile bytes survive, last one flipped; durable intact.
        assert_eq!(d.read(0, 8).unwrap(), b"durable!");
        assert_eq!(d.len(), 13);
        assert_eq!(d.read(8, 5).unwrap(), [b'0', b'1', b'2', b'3', b'4' ^ 0x80]);
        assert_eq!(d.volatile_len(), 0, "torn prefix became durable");
    }

    #[test]
    fn crash_torn_with_empty_volatile_is_clean() {
        let d = SimDisk::new();
        d.append(b"safe").unwrap();
        d.sync().unwrap();
        d.crash_torn(TornWriteMode::FullLengthCorrupt);
        assert_eq!(d.read(0, 4).unwrap(), b"safe");
        assert_eq!(d.stats().crashes, 1);
    }

    #[test]
    fn simdisk_read_spans_durable_and_volatile() {
        let d = SimDisk::new();
        d.append(b"dur").unwrap();
        d.sync().unwrap();
        d.append(b"vol").unwrap();
        assert_eq!(d.read(1, 4).unwrap(), b"urvo");
    }

    #[test]
    fn simdisk_fail_and_repair() {
        let d = SimDisk::new();
        d.fail();
        assert_eq!(d.append(b"x"), Err(StorageError::DeviceFailed));
        assert_eq!(d.sync(), Err(StorageError::DeviceFailed));
        d.repair();
        assert!(d.append(b"x").is_ok());
    }

    #[test]
    fn simdisk_reset_is_durable() {
        let d = SimDisk::new();
        d.append(b"old").unwrap();
        d.reset(b"new!".to_vec()).unwrap();
        d.crash(CrashStyle::DropVolatile);
        assert_eq!(d.read(0, 4).unwrap(), b"new!");
    }

    #[test]
    fn memdisk_truncate_cuts_in_place() {
        let d = MemDisk::new();
        d.append(b"keep|drop").unwrap();
        d.truncate(4).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.read(0, 4).unwrap(), b"keep");
        d.truncate(99).unwrap();
        assert_eq!(d.len(), 4, "a cut past the end changes nothing");
        assert_eq!(d.append(b"!").unwrap(), 4, "appends resume at the cut");
    }

    #[test]
    fn simdisk_truncate_cuts_durable_and_volatile() {
        let d = SimDisk::new();
        d.append(b"durable").unwrap();
        d.sync().unwrap();
        d.append(b"volatile").unwrap();
        // A cut inside the volatile region keeps the durable bytes durable.
        d.truncate(10).unwrap();
        assert_eq!((d.durable_len(), d.volatile_len()), (7, 3));
        assert_eq!(d.read(0, 10).unwrap(), b"durablevol");
        // A cut inside the durable region drops every volatile byte too,
        // and what is left survives a crash.
        d.truncate(3).unwrap();
        assert_eq!((d.durable_len(), d.volatile_len()), (3, 0));
        d.crash(CrashStyle::DropVolatile);
        assert_eq!(d.read(0, 3).unwrap(), b"dur");
        d.truncate(99).unwrap();
        assert_eq!(d.len(), 3);
        d.fail();
        assert_eq!(d.truncate(0), Err(StorageError::DeviceFailed));
    }

    #[test]
    fn latency_disk_truncate_reaches_the_device() {
        let sim = SimDisk::new();
        let d = LatencyDisk::new(Arc::new(sim.clone()), std::time::Duration::ZERO);
        d.append(b"abcdef").unwrap();
        d.sync().unwrap();
        d.truncate(2).unwrap();
        assert_eq!(sim.durable_len(), 2);
        assert_eq!(d.read(0, 2).unwrap(), b"ab");
    }

    #[test]
    fn simdisk_sync_keeps_the_volatile_buffer() {
        let d = SimDisk::new();
        d.append(&[1; 4096]).unwrap();
        d.sync().unwrap();
        assert!(
            d.inner.lock().volatile.capacity() >= 4096,
            "a force must not throw the append buffer away"
        );
        d.append(&[2; 16]).unwrap();
        d.sync().unwrap();
        assert_eq!(d.durable_len(), 4112);
        assert_eq!(d.read(4096, 16).unwrap(), [2; 16]);
    }

    #[test]
    fn stats_count_operations() {
        let d = SimDisk::new();
        d.append(b"ab").unwrap();
        d.append(b"c").unwrap();
        d.sync().unwrap();
        d.read(0, 1).unwrap();
        d.crash(CrashStyle::DropVolatile);
        let s = d.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.bytes_appended, 3);
        assert_eq!(s.syncs, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.crashes, 1);
    }

    #[test]
    fn latency_disk_delegates_and_counts() {
        let sim = SimDisk::new();
        let d = LatencyDisk::new(Arc::new(sim.clone()), std::time::Duration::from_millis(1));
        d.append(b"abc").unwrap();
        let t0 = std::time::Instant::now();
        d.sync().unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(1));
        assert_eq!(sim.durable_len(), 3);
        assert_eq!(d.stats().syncs, 1);
        assert_eq!(d.read(0, 3).unwrap(), b"abc");
        d.reset(Vec::new()).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn clone_shares_underlying_device() {
        let d = SimDisk::new();
        let d2 = d.clone();
        d.append(b"shared").unwrap();
        d.sync().unwrap();
        assert_eq!(d2.read(0, 6).unwrap(), b"shared");
    }
}
