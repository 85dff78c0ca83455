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
//! An experiment that wants the cost of a real device charges one with
//! [`SimDisk::set_latency`].

use crate::error::{StorageError, StorageResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
/// The log and checkpoint stores are both built on this narrow interface,
/// which [`SimDisk`] implements.
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
    syncs_failed: bool,
    stats: DiskStats,
}

impl SimInner {
    /// The first `keep` volatile bytes reach the medium, the last of them
    /// corrupted; the rest are lost. The surviving prefix is durable: it
    /// physically hit the platter.
    fn tear(&mut self, keep: usize) {
        let keep = keep.min(self.volatile.len());
        self.volatile.truncate(keep);
        if keep > 0 {
            self.volatile[keep - 1] ^= 0x80;
        }
        self.durable.append(&mut self.volatile);
    }
}

/// Unit of the [`SimDisk::set_latency`] read charge.
pub const READ_SECTOR: usize = 512;

#[derive(Debug, Default)]
struct Device {
    medium: Mutex<SimInner>,
    /// Nanoseconds charged per sync; zero (the default) charges nothing.
    sync_ns: AtomicU64,
    /// Nanoseconds charged per started [`READ_SECTOR`] of a read.
    read_ns: AtomicU64,
    /// The device's one flush channel: charged syncs and reads queue on it.
    flush_channel: Mutex<()>,
}

/// The crash-simulating stable store.
///
/// Cloning shares the underlying device (it is an `Arc`), which is how a
/// "restarted process" reopens the same disk after [`SimDisk::crash`].
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    inner: Arc<Device>,
}

impl SimDisk {
    /// Create an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `sync` per [`Disk::sync`] and `read_per_sector` per started
    /// [`READ_SECTOR`] of every [`Disk::read`] (at least one sector per
    /// read); zero charges nothing, which is the default.
    ///
    /// A sync here is a memcpy, so a force per commit and a force per group
    /// would cost the same and no benchmark could see batching win; real
    /// log devices pay a flush delay per force. Charged syncs and reads
    /// serialize on the device's one flush channel, so two threads syncing
    /// "at the same time" pay two delays back to back, while devices of
    /// different partitions overlap. The read charge is per sector moved,
    /// so a scan costs its bytes however it windows its reads. Every clone
    /// of the device pays the charge.
    pub fn set_latency(&self, sync: Duration, read_per_sector: Duration) {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.inner.sync_ns.store(nanos(sync), Ordering::Release);
        self.inner
            .read_ns
            .store(nanos(read_per_sector), Ordering::Release);
    }

    /// The device's medium.
    fn medium(&self) -> parking_lot::MutexGuard<'_, SimInner> {
        self.inner.medium.lock()
    }

    /// Sleep `nanos` on the flush channel; zero returns at once.
    fn charge(&self, nanos: u64) {
        if nanos > 0 {
            let _channel = self.inner.flush_channel.lock();
            std::thread::sleep(Duration::from_nanos(nanos));
        }
    }

    /// Simulate a crash: volatile bytes are discarded per `style` and the
    /// device remains usable (a restart re-reads the durable prefix).
    pub fn crash(&self, style: CrashStyle) {
        let mut g = self.medium();
        g.stats.crashes += 1;
        match style {
            CrashStyle::DropVolatile => g.volatile.clear(),
            CrashStyle::Torn { keep } => g.tear(keep),
        }
    }

    /// Crash with a torn tail shaped by `mode`: the surviving byte count is
    /// computed from the volatile length under the device lock, so the tear
    /// always lands inside the unsynced region. With nothing unsynced this
    /// degrades to a clean [`CrashStyle::DropVolatile`]-equivalent crash —
    /// durable bytes are never corrupted (they already hit the platter).
    pub fn crash_torn(&self, mode: TornWriteMode) {
        let mut g = self.medium();
        g.stats.crashes += 1;
        let keep = mode.keep_of(g.volatile.len());
        g.tear(keep);
    }

    /// Mark the device as failed: every subsequent operation returns
    /// [`StorageError::DeviceFailed`] until [`SimDisk::repair`].
    pub fn fail(&self) {
        self.medium().failed = true;
    }

    /// Make only [`Disk::reset`] fail (the rename of a write-temp-then-rename
    /// swap is refused) until [`SimDisk::repair`]; appends, reads and syncs
    /// keep working.
    pub fn fail_resets(&self) {
        self.medium().resets_failed = true;
    }

    /// Make only [`Disk::sync`] fail until [`SimDisk::repair`]; appends land.
    pub fn fail_syncs(&self) {
        self.medium().syncs_failed = true;
    }

    /// Clear what [`SimDisk::fail`] and its `fail_*` variants set.
    pub fn repair(&self) {
        let mut g = self.medium();
        g.failed = false;
        g.resets_failed = false;
        g.syncs_failed = false;
    }

    /// Number of bytes currently durable (synced).
    pub fn durable_len(&self) -> u64 {
        self.medium().durable.len() as u64
    }

    /// Number of bytes currently volatile (would be lost by a crash).
    pub fn volatile_len(&self) -> u64 {
        self.medium().volatile.len() as u64
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
        let mut g = self.medium();
        self.check(&g)?;
        let off = (g.durable.len() + g.volatile.len()) as u64;
        g.volatile.extend_from_slice(data);
        g.stats.appends += 1;
        g.stats.bytes_appended += data.len() as u64;
        Ok(off)
    }

    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        let per_sector = self.inner.read_ns.load(Ordering::Acquire);
        if per_sector > 0 {
            let sectors = len.div_ceil(READ_SECTOR).max(1) as u64;
            self.charge(per_sector.saturating_mul(sectors));
        }
        let mut g = self.medium();
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
        let g = self.medium();
        (g.durable.len() + g.volatile.len()) as u64
    }

    fn sync(&self) -> StorageResult<()> {
        self.charge(self.inner.sync_ns.load(Ordering::Acquire));
        let mut g = self.medium();
        if g.failed || g.syncs_failed {
            return Err(StorageError::DeviceFailed);
        }
        // Keep the volatile buffer's capacity: a force follows nearly every
        // append, and a taken buffer would re-grow from nothing each time.
        let inner = &mut *g;
        inner.durable.extend_from_slice(&inner.volatile);
        inner.volatile.clear();
        inner.stats.syncs += 1;
        Ok(())
    }

    fn reset(&self, contents: Vec<u8>) -> StorageResult<()> {
        let mut g = self.medium();
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
        let mut g = self.medium();
        self.check(&g)?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let keep_volatile = len.saturating_sub(g.durable.len());
        g.volatile.truncate(keep_volatile);
        g.durable.truncate(len);
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        self.medium().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simdisk_append_read_roundtrip() {
        let d = SimDisk::new();
        assert_eq!(d.append(b"hello").unwrap(), 0);
        d.sync().unwrap();
        // An append's offset counts the durable and the volatile bytes.
        assert_eq!(d.append(b"world").unwrap(), 5);
        assert_eq!(d.append(b"!").unwrap(), 10);
        assert_eq!(d.read(0, 11).unwrap(), b"helloworld!");
        assert_eq!(d.read(5, 5).unwrap(), b"world");
    }

    #[test]
    fn simdisk_out_of_bounds_read() {
        let d = SimDisk::new();
        d.append(b"ab").unwrap();
        d.sync().unwrap();
        d.append(b"c").unwrap();
        for (offset, len) in [(2, 5), (4, 0), (u64::MAX, 1)] {
            assert_eq!(
                d.read(offset, len),
                Err(StorageError::OutOfBounds {
                    offset,
                    len,
                    size: 3
                })
            );
        }
        assert_eq!(d.read(3, 0).unwrap(), b"");
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
    fn simdisk_truncate_then_append_resumes_at_the_cut() {
        let d = SimDisk::new();
        d.append(b"keep|drop").unwrap();
        d.truncate(4).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.read(0, 4).unwrap(), b"keep");
        d.truncate(99).unwrap();
        assert_eq!(d.len(), 4, "a cut past the end changes nothing");
        assert_eq!(d.append(b"!").unwrap(), 4, "appends resume at the cut");
        assert_eq!(d.read(0, 5).unwrap(), b"keep!");
    }

    #[test]
    fn latency_disk_truncate_reaches_the_device() {
        let sim = SimDisk::new();
        let d = sim.clone();
        d.set_latency(Duration::from_micros(1), Duration::from_micros(1));
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
            d.medium().volatile.capacity() >= 4096,
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
        let d = sim.clone();
        d.set_latency(Duration::from_millis(1), Duration::ZERO);
        d.append(b"abc").unwrap();
        let t0 = std::time::Instant::now();
        d.sync().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert_eq!(sim.durable_len(), 3);
        assert_eq!(d.stats().syncs, 1);
        assert_eq!(d.read(0, 3).unwrap(), b"abc");
        d.reset(Vec::new()).unwrap();
        assert!(d.is_empty());
        // A read is charged per started sector, at least one.
        d.set_latency(Duration::ZERO, Duration::from_millis(1));
        d.append(&[0; READ_SECTOR + 1]).unwrap();
        let t0 = std::time::Instant::now();
        d.read(0, READ_SECTOR + 1).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn two_threads_syncing_one_device_pay_two_delays_back_to_back() {
        let d = SimDisk::new();
        d.set_latency(Duration::from_millis(20), Duration::ZERO);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| d.sync().unwrap());
            }
        });
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(d.stats().syncs, 2);
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
