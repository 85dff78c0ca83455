//! Checkpoints for the key-value store.
//!
//! A checkpoint is the whole committed tree in one crc32-framed **base**
//! segment, written with one atomic device swap ([`crate::disk::Disk::reset`],
//! modelling write-temp-then-rename). The device therefore holds the last
//! checkpoint whole, or is empty: a crash mid-checkpoint leaves the previous
//! one in place, and no crash leaves anything else. So [`load_chain`] accepts
//! exactly an empty device or one valid base filling it, and refuses anything
//! else as [`StorageError::Corrupt`] without touching the device. (The names
//! `load_chain`, [`CheckpointChain`] and [`ChainMark`] speak of a chain; it is
//! always one segment long.)
//!
//! A segment does not say which commits it covers; the log does. Before a
//! segment is written the store appends a `Checkpoint` record naming the
//! checkpoint that segment will be — a [`ChainMark`], its length and its
//! trailing CRC — and forces it with the rest of the log. The log is
//! truncated only once the segment is durable, so a crash in between leaves
//! the log whole beside a checkpoint that already covers it up to that
//! record: recovery finds the record naming the checkpoint it loaded and
//! replays only what follows (see [`crate::recovery`]).

use crate::checksum::{crc32, Crc32};
use crate::codec::{put, Reader};
use crate::disk::Disk;
use crate::error::{StorageError, StorageResult};
use crate::wal::SCAN_WINDOW;
use std::collections::BTreeMap;

/// Segment frame marker (distinct from the retired full-snapshot magic).
const SEG_MAGIC: u32 = 0xC4EC_B007;

/// Frame header bytes: magic(4) + kind(1) + body len(8).
const SEG_HEADER: usize = 13;

/// Trailing CRC-32 over magic + kind + len + body.
const SEG_TRAILER: usize = 4;

/// The kind byte of a base segment, the only kind there is.
const KIND_BASE: u8 = 0;

/// The store's committed tree.
pub type Tree = BTreeMap<Vec<u8>, Vec<u8>>;

/// What [`load_chain`] found on the checkpoint device.
#[derive(Debug, Default)]
pub struct CheckpointChain {
    /// The tree the checkpoint holds (empty for an empty device).
    pub mem: Tree,
    /// The name a `Checkpoint` record in the log knows this checkpoint by
    /// (the default mark for an empty device, which no record names).
    pub mark: ChainMark,
}

/// Names one checkpoint: its length and the CRC its frame closes with. Two
/// checkpoints of one device differ in it unless they are the same length
/// and their CRCs collide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainMark {
    /// Byte offset where the checkpoint ends.
    pub end: u64,
    /// Trailing CRC-32 of its frame (0 for no checkpoint).
    pub crc: u32,
}

impl ChainMark {
    /// Append as a `Checkpoint` record's payload.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put::u64(buf, self.end);
        put::u32(buf, self.crc);
    }

    /// Does a `Checkpoint` record's payload name this checkpoint? (The
    /// record that opens a truncated log has an empty payload and names
    /// none.)
    pub fn named_by(&self, payload: &[u8]) -> bool {
        let mut name = Vec::with_capacity(12);
        self.encode_into(&mut name);
        name == payload
    }
}

/// One framed segment, built in memory before either device is touched so
/// that the log can be told which checkpoint it is.
pub struct Segment {
    frame: Vec<u8>,
}

impl Segment {
    fn framed(kind: u8, body: &[u8]) -> Segment {
        let mut frame = Vec::with_capacity(SEG_HEADER + body.len() + SEG_TRAILER);
        put::u32(&mut frame, SEG_MAGIC);
        put::u8(&mut frame, kind);
        put::u64(&mut frame, body.len() as u64);
        frame.extend_from_slice(body);
        let crc = crc32(&frame);
        put::u32(&mut frame, crc);
        Segment { frame }
    }

    /// The whole tree as a base segment.
    pub fn base(mem: &Tree) -> Segment {
        let mut body = Vec::new();
        put::u64(&mut body, mem.len() as u64);
        for (k, v) in mem {
            put::bytes(&mut body, k);
            put::bytes(&mut body, v);
        }
        Segment::framed(KIND_BASE, &body)
    }

    /// The checkpoint the device holds once this segment is written to it.
    pub fn mark(&self) -> ChainMark {
        let tail = &self.frame[self.frame.len() - SEG_TRAILER..];
        ChainMark {
            end: self.frame.len() as u64,
            crc: u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]),
        }
    }

    /// Make the segment durable on `disk` with one atomic device swap.
    pub fn write(self, disk: &dyn Disk) -> StorageResult<()> {
        disk.reset(self.frame)
    }
}

/// One base entry: a key and its value.
fn base_entry(r: &mut Reader<'_>) -> StorageResult<(Vec<u8>, Vec<u8>)> {
    let k = r.bytes_ref()?;
    let v = r.bytes_ref()?;
    Ok((k.to_vec(), v.to_vec()))
}

/// Read the base whose frame opens `disk` with `header` and a `len` byte
/// body: the tree its count-prefixed entries make and its trailing CRC.
/// `None` when the body does not decode or the frame fails its CRC.
///
/// The body is read in windows of [`SCAN_WINDOW`] bytes, as
/// [`crate::wal::Wal::scan_with`] reads the log, each byte fed once to the
/// streaming CRC, so no copy of the whole segment is ever held beside the
/// entries decoded from it. An entry that straddles a window's end is
/// re-read from its start with the next window, which reaches a window's
/// length past the bytes already read and doubles while one entry does not
/// fit in it.
fn read_base(disk: &dyn Disk, header: &[u8], len: u64) -> StorageResult<Option<(Tree, u32)>> {
    if len < 8 {
        return Ok(None); // no room for the count
    }
    let body = SEG_HEADER as u64;
    let end = body + len;
    let head = disk.read(body, 8)?;
    let count = Reader::new(&head).u64()?;
    let mut crc = Crc32::new();
    crc.update(header);
    crc.update(&head);
    // Every entry takes at least eight bytes: a corrupt count cannot
    // reserve more than the body could hold.
    let mut entries = Vec::with_capacity(count.min(len / 8) as usize);
    let mut fed = body + 8; // the CRC has seen the device up to here
    let mut at = fed; // the first byte not yet decoded
    let mut want = SCAN_WINDOW;
    while fed < end {
        let window = disk.read(at, want.min((end - at) as usize))?;
        crc.update(&window[(fed - at) as usize..]);
        fed = at + window.len() as u64;
        let mut r = Reader::new(&window);
        let mut decoded = 0;
        while (entries.len() as u64) < count {
            let Ok(e) = base_entry(&mut r) else {
                break; // the rest of this entry is past the window
            };
            entries.push(e);
            decoded = window.len() - r.remaining();
        }
        if entries.len() as u64 == count {
            at = fed; // all decoded: what is left only feeds the CRC
            want = SCAN_WINDOW;
        } else if fed == end {
            return Ok(None); // the body ends inside an entry
        } else if decoded == 0 {
            want = window.len() * 2;
        } else {
            // Re-read the straddling entry's head, and a window past it.
            at += decoded as u64;
            want = (fed - at) as usize + SCAN_WINDOW;
        }
    }
    if (entries.len() as u64) < count {
        return Ok(None); // a body that is its count and nothing else
    }
    let trailer = disk.read(end, SEG_TRAILER)?;
    let expect = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    // The entries come off the device in key order (the base is written
    // from the tree), so the tree is built from them in one bulk pass
    // rather than by an insert per entry.
    Ok((crc.finish() == expect).then(|| (entries.into_iter().collect(), expect)))
}

/// Load the checkpoint `disk` holds: nothing from an empty device, else the
/// one base that must fill it exactly. A device that is anything else — a
/// frame that is short, long, of another kind, fails its CRC or does not
/// decode — is [`StorageError::Corrupt`]: no crash leaves one (the base is
/// swapped in whole), so it is damage, and the caller must not open over it
/// as if the store were empty. The device is only read.
///
/// The base's entries are decoded and its CRC checked before the tree is
/// built from them.
pub fn load_chain(disk: &dyn Disk) -> StorageResult<CheckpointChain> {
    let total = disk.len();
    if total == 0 {
        return Ok(CheckpointChain::default());
    }
    let corrupt = |detail: &str| StorageError::Corrupt {
        offset: 0,
        detail: format!("checkpoint device of {total} bytes: {detail}"),
    };
    if total < (SEG_HEADER + SEG_TRAILER) as u64 {
        return Err(corrupt("shorter than a frame"));
    }
    let header = disk.read(0, SEG_HEADER)?;
    let mut r = Reader::new(&header);
    let (magic, kind, len) = (r.u32()?, r.u8()?, r.u64()?);
    if magic != SEG_MAGIC || kind != KIND_BASE {
        return Err(corrupt("not a base segment"));
    }
    if len.checked_add((SEG_HEADER + SEG_TRAILER) as u64) != Some(total) {
        return Err(corrupt(&format!(
            "a base of {len} body bytes does not fill it"
        )));
    }
    let (mem, crc) = read_base(disk, &header, len)?
        .ok_or_else(|| corrupt("the base does not decode or fails its CRC"))?;
    Ok(CheckpointChain {
        mem,
        mark: ChainMark { end: total, crc },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;

    fn tree<const N: usize>(pairs: [(&[u8], &[u8]); N]) -> Tree {
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    fn sample() -> Tree {
        tree([
            (b"alpha", b"1"),
            (b"beta", &[0u8; 1024]),
            (b"", b"empty-key"),
        ])
    }

    /// `load_chain` refuses `device` as corrupt and leaves it as it was.
    fn assert_corrupt(device: Vec<u8>, what: &str) {
        let d = SimDisk::new();
        d.reset(device.clone()).unwrap();
        let err = load_chain(&d).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{what}: {err}");
        assert_eq!(d.read(0, d.len() as usize).unwrap(), device, "{what}");
    }

    #[test]
    fn base_roundtrip() {
        let d = SimDisk::new();
        let m = sample();
        let segment = Segment::base(&m);
        let mark = segment.mark();
        segment.write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.mem, m);
        assert_eq!(chain.mark, mark);
        assert_eq!(chain.mark.end, d.len());
    }

    #[test]
    fn empty_device_loads_empty_chain() {
        let d = SimDisk::new();
        let chain = load_chain(&d).unwrap();
        assert!(chain.mem.is_empty());
        assert_eq!(chain.mark, ChainMark::default());
    }

    #[test]
    fn corrupt_base_fails_the_load() {
        let mut bad = Segment::base(&sample()).frame;
        bad[10] ^= 0xFF;
        assert_corrupt(bad, "flipped length byte");
    }

    #[test]
    fn short_garbage_fails_the_load() {
        assert_corrupt(vec![1, 2, 3], "three bytes");
    }

    #[test]
    fn new_base_replaces_previous_chain() {
        let d = SimDisk::new();
        Segment::base(&sample()).write(&d).unwrap();
        let m2 = tree([(b"only", b"one")]);
        Segment::base(&m2).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.mem, m2);
        assert_eq!(chain.mark.end, d.len());
    }

    #[test]
    fn empty_tree_roundtrips() {
        let d = SimDisk::new();
        Segment::base(&Tree::new()).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert!(chain.mem.is_empty());
        assert_ne!(chain.mark, ChainMark::default());
    }

    #[test]
    fn a_segment_length_past_any_device_fails_the_load() {
        for len in [u64::MAX - 8, u64::MAX, u64::MAX - 16] {
            let mut frame = Vec::new();
            put::u32(&mut frame, SEG_MAGIC);
            put::u8(&mut frame, KIND_BASE);
            put::u64(&mut frame, len);
            frame.extend_from_slice(&[0; 16]);
            assert_corrupt(frame, &format!("len {len}"));
        }
    }

    #[test]
    fn a_base_with_a_bad_crc_or_a_short_body_installs_nothing() {
        let good = Segment::base(&sample()).frame;
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let cut = good[..good.len() - 1].to_vec();
        // CRC-valid, but the count promises an entry the body does not hold.
        let short = {
            let body = &good[SEG_HEADER..good.len() - SEG_TRAILER];
            Segment::framed(KIND_BASE, &body[..body.len() - 1]).frame
        };
        let no_count = Segment::framed(KIND_BASE, &[3, 0, 0]).frame;
        let mut past_the_frame = good.clone();
        past_the_frame.extend_from_slice(b"stale");
        for (what, frame) in [
            ("flipped crc", flipped),
            ("cut device", cut),
            ("short body", short),
            ("no count", no_count),
            ("bytes past the frame", past_the_frame),
        ] {
            assert_corrupt(frame, what);
        }
    }

    #[test]
    fn delta_without_base_fails_the_load() {
        // CRC-valid and decodable, but of the old delta kind, with no base.
        let good = Segment::base(&sample()).frame;
        let delta = Segment::framed(1, &good[SEG_HEADER..good.len() - SEG_TRAILER]).frame;
        assert_corrupt(delta, "a delta-kind frame alone");
    }

    #[test]
    fn values_longer_than_a_window_stream_through() {
        let big = vec![7u8; SCAN_WINDOW * 2 + 5];
        let m = tree([(b"a", b"x"), (b"b", &big), (b"c", b"y"), (b"d", &big)]);
        let d = SimDisk::new();
        Segment::base(&m).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.mark.end, d.len());
        assert_eq!(chain.mem, m);
    }
}
