//! Incremental checkpoint chains for the key-value store.
//!
//! A checkpoint is no longer a single full serialization of the tree: the
//! device holds a *chain* of crc32-framed segments — one **base** snapshot
//! (written with an atomic device swap, [`crate::disk::Disk::reset`],
//! modelling write-temp-then-rename) followed by zero or more **delta**
//! segments, each carrying only the keys written since the previous segment
//! (appended, then forced with [`crate::disk::Disk::sync`]). Restart cost is
//! therefore bounded by data touched since the last checkpoint, not by
//! history length.
//!
//! Which keys those are is read off the tree itself: every entry is
//! [`Stamped`] with the checkpoint generation that last wrote it, so a delta
//! is the entries carrying the current generation plus a tombstone for each
//! key deleted since and still absent ([`delta_since`]). Nothing is recorded
//! per write beyond the stamp, and a checkpoint that fails before its segment
//! is durable has nothing to put back.
//!
//! Crash atomicity: a crash mid-base leaves the previous contents intact
//! (the swap is atomic); a crash mid-delta leaves a torn tail that fails its
//! CRC, so [`load_chain`] stops at the previous complete segment — and the
//! store only truncates its log *after* the segment write returns, so the
//! log still holds everything the lost delta described. A chain whose first
//! segment is not a valid base (including the pre-segment full-snapshot
//! format) is treated as absent.
//!
//! A segment does not say which commits it covers; the log does. Before a
//! segment is written the store appends a `Checkpoint` record naming the
//! chain that segment will complete — a [`ChainMark`], the chain's length and
//! its last segment's CRC — and forces it with the rest of the log. The log
//! is truncated only once the segment is durable, so a crash in between
//! leaves the log whole beside a chain that already covers it up to that
//! record: recovery finds the record naming the chain it loaded and replays
//! only what follows (see [`crate::recovery`]).

use crate::checksum::{crc32, Crc32};
use crate::codec::{put, Reader};
use crate::disk::Disk;
use crate::error::StorageResult;
use crate::wal::SCAN_WINDOW;
use std::collections::BTreeMap;

/// Segment frame marker (distinct from the retired full-snapshot magic).
const SEG_MAGIC: u32 = 0xC4EC_B007;

/// Frame header bytes: magic(4) + kind(1) + body len(8).
const SEG_HEADER: usize = 13;

/// Trailing CRC-32 over magic + kind + len + body.
const SEG_TRAILER: usize = 4;

const KIND_BASE: u8 = 0;
const KIND_DELTA: u8 = 1;

/// A committed value and the checkpoint generation that last wrote it. The
/// store's generation starts at 1 and moves on each time a segment becomes
/// durable; entries loaded from the chain carry 0, which no later generation
/// equals, and an entry whose stamp is the current generation is owed to the
/// next delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// Value bytes.
    pub value: Vec<u8>,
    /// Checkpoint generation of the last write.
    pub gen: u64,
}

/// The store's committed tree.
pub type Tree = BTreeMap<Vec<u8>, Stamped>;

/// Generation of entries that came from the chain.
const CHAIN_GEN: u64 = 0;

/// What [`load_chain`] found on the checkpoint device.
#[derive(Debug, Default)]
pub struct CheckpointChain {
    /// The tree described by the valid chain prefix (base + deltas applied),
    /// every entry stamped with generation 0.
    pub mem: Tree,
    /// Number of valid segments (0 = no usable checkpoint).
    pub segments: u64,
    /// Byte offset where the valid chain ends. Bytes past it are a stale or
    /// torn segment and must be discarded before the next delta is appended.
    pub valid_end: u64,
    /// Trailing CRC-32 of the last valid segment (0 for no chain).
    pub tail_crc: u32,
}

impl CheckpointChain {
    /// The name a `Checkpoint` record in the log knows this chain by.
    pub fn mark(&self) -> ChainMark {
        ChainMark {
            end: self.valid_end,
            crc: self.tail_crc,
        }
    }
}

/// Names one state of a chain: where it ends and the CRC its last segment
/// closes with. Two states of one device differ in it — a delta moves the
/// end, and a rewritten base of the very same length still has to collide
/// with the old tail's CRC (the protection a torn segment gets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainMark {
    /// Byte offset where the chain ends.
    pub end: u64,
    /// Trailing CRC-32 of the segment that ends there (0 for no chain).
    pub crc: u32,
}

impl ChainMark {
    /// Append as a `Checkpoint` record's payload.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put::u64(buf, self.end);
        put::u32(buf, self.crc);
    }

    /// Does a `Checkpoint` record's payload name this chain? (The record
    /// that opens a truncated log has an empty payload and names none.)
    pub fn named_by(&self, payload: &[u8]) -> bool {
        let mut name = Vec::with_capacity(12);
        self.encode_into(&mut name);
        name == payload
    }
}

/// One framed segment, built in memory before either device is touched so
/// that the log can be told which chain it completes.
pub struct Segment {
    frame: Vec<u8>,
    base: bool,
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
        Segment {
            frame,
            base: kind == KIND_BASE,
        }
    }

    /// The whole tree as a base segment, which starts a fresh chain.
    pub fn base(mem: &Tree) -> Segment {
        let mut body = Vec::new();
        put::u64(&mut body, mem.len() as u64);
        for (k, v) in mem {
            put::bytes(&mut body, k);
            put::bytes(&mut body, &v.value);
        }
        Segment::framed(KIND_BASE, &body)
    }

    /// A delta segment: the written keys with their current committed values
    /// (`None` = tombstone).
    pub fn delta(delta: &BTreeMap<Vec<u8>, Option<Vec<u8>>>) -> Segment {
        let mut body = Vec::new();
        put::u64(&mut body, delta.len() as u64);
        for (k, v) in delta {
            put::bytes(&mut body, k);
            match v {
                Some(val) => {
                    put::u8(&mut body, 1);
                    put::bytes(&mut body, val);
                }
                None => put::u8(&mut body, 0),
            }
        }
        Segment::framed(KIND_DELTA, &body)
    }

    /// The chain `disk` holds once this segment is written to it.
    pub fn completes(&self, disk: &dyn Disk) -> ChainMark {
        let before = if self.base { 0 } else { disk.len() };
        let tail = &self.frame[self.frame.len() - SEG_TRAILER..];
        ChainMark {
            end: before + self.frame.len() as u64,
            crc: u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]),
        }
    }

    /// Make the segment durable on `disk`: a base with one atomic device
    /// swap, a delta appended and forced.
    pub fn write(self, disk: &dyn Disk) -> StorageResult<()> {
        if self.base {
            return disk.reset(self.frame);
        }
        disk.append(&self.frame)?;
        disk.sync()
    }
}

/// The next delta segment's contents: every entry of `mem` stamped `gen`
/// with its value, and a tombstone for every key of `deleted` that `mem` no
/// longer holds (a key deleted and written again is an entry stamped `gen`).
/// One pass over the whole tree: the price of recording nothing per write.
pub fn delta_since(
    mem: &Tree,
    gen: u64,
    deleted: &[Vec<u8>],
) -> BTreeMap<Vec<u8>, Option<Vec<u8>>> {
    let mut delta: BTreeMap<Vec<u8>, Option<Vec<u8>>> = mem
        .iter()
        .filter(|(_, v)| v.gen == gen)
        .map(|(k, v)| (k.clone(), Some(v.value.clone())))
        .collect();
    for k in deleted {
        if !mem.contains_key(k) {
            delta.insert(k.clone(), None);
        }
    }
    delta
}

fn from_chain(value: Vec<u8>) -> Stamped {
    Stamped {
        value,
        gen: CHAIN_GEN,
    }
}

/// One base entry: a key and its value.
fn base_entry(r: &mut Reader<'_>) -> StorageResult<(Vec<u8>, Stamped)> {
    let k = r.bytes_ref()?;
    let v = r.bytes_ref()?;
    Ok((k.to_vec(), from_chain(v.to_vec())))
}

/// One delta entry: a key and its new value, `None` for a tombstone.
fn delta_entry(r: &mut Reader<'_>) -> StorageResult<(Vec<u8>, Option<Vec<u8>>)> {
    let k = r.bytes_ref()?;
    let v = match r.u8()? {
        0 => None,
        _ => Some(r.bytes_ref()?.to_vec()),
    };
    Ok((k.to_vec(), v))
}

/// Read the segment whose frame starts at `off` with `header` and a `len`
/// byte body: its count-prefixed entries, decoded with `entry`, and its
/// trailing CRC. `None` when the body does not decode or the frame fails
/// its CRC.
///
/// The body is read in windows of [`SCAN_WINDOW`] bytes, as
/// [`crate::wal::Wal::scan_with`] reads the log, each byte fed once to the
/// streaming CRC, so no copy of the whole segment is ever held beside the
/// entries decoded from it. An entry that straddles a window's end is
/// re-read from its start with the next window, which reaches a window's
/// length past the bytes already read and doubles while one entry does not
/// fit in it.
fn read_segment<T>(
    disk: &dyn Disk,
    off: u64,
    header: &[u8],
    len: u64,
    entry: impl Fn(&mut Reader<'_>) -> StorageResult<T>,
) -> StorageResult<Option<(Vec<T>, u32)>> {
    if len < 8 {
        return Ok(None); // no room for the count
    }
    let body = off + SEG_HEADER as u64;
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
            let Ok(e) = entry(&mut r) else {
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
    Ok((crc.finish() == expect).then_some((entries, expect)))
}

/// Walk the segment chain from offset 0: the base, then each delta in order.
///
/// The walk stops — without error — at the first segment that is truncated,
/// has a bad magic or kind, fails its CRC, or does not decode: that is the
/// torn tail of a crash mid-checkpoint, and everything it described is still
/// in the logs. A chain that does not *start* with a valid base is treated
/// as absent. A segment reaches the tree whole or not at all: its entries
/// are decoded and its CRC checked before the first of them is applied.
///
/// The base's entries come off the device in key order (the base is written
/// from the tree), so the tree is built from them in one bulk pass rather
/// than by an insert per entry.
pub fn load_chain(disk: &dyn Disk) -> StorageResult<CheckpointChain> {
    let total = disk.len();
    let mut chain = CheckpointChain::default();
    let mut off = 0u64;
    while off + (SEG_HEADER + SEG_TRAILER) as u64 <= total {
        let header = disk.read(off, SEG_HEADER)?;
        let mut r = Reader::new(&header);
        let Ok(magic) = r.u32() else { break };
        if magic != SEG_MAGIC {
            break;
        }
        let Ok(kind) = r.u8() else { break };
        if kind != KIND_BASE && kind != KIND_DELTA {
            break;
        }
        if chain.segments == 0 && kind != KIND_BASE {
            break; // chain must start with a base
        }
        let Ok(len) = r.u64() else { break };
        let frame_end = len
            .checked_add((SEG_HEADER + SEG_TRAILER) as u64)
            .and_then(|frame| off.checked_add(frame));
        let Some(frame_end) = frame_end.filter(|&e| e <= total) else {
            break; // truncated tail, or a length no device holds
        };
        // Torn or undecodable: stop, don't fail.
        let crc = if kind == KIND_BASE {
            let Some((entries, crc)) = read_segment(disk, off, &header, len, base_entry)? else {
                break;
            };
            chain.mem = entries.into_iter().collect();
            crc
        } else {
            let Some((entries, crc)) = read_segment(disk, off, &header, len, delta_entry)? else {
                break;
            };
            for (k, v) in entries {
                match v {
                    Some(v) => {
                        chain.mem.insert(k, from_chain(v));
                    }
                    None => {
                        chain.mem.remove(&k);
                    }
                }
            }
            crc
        };
        chain.segments += 1;
        off = frame_end;
        chain.valid_end = off;
        chain.tail_crc = crc;
    }
    if chain.segments == 0 {
        chain.mem.clear();
        chain.valid_end = 0;
        chain.tail_crc = 0;
    }
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    /// A tree as the chain loads it: every entry stamped with generation 0.
    fn tree<const N: usize>(pairs: [(&[u8], &[u8]); N]) -> Tree {
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_vec(), from_chain(v.to_vec())))
            .collect()
    }

    fn sample() -> Tree {
        tree([
            (b"alpha", b"1"),
            (b"beta", &[0u8; 1024]),
            (b"", b"empty-key"),
        ])
    }

    fn value<'a>(mem: &'a Tree, key: &[u8]) -> Option<&'a [u8]> {
        mem.get(key).map(|v| v.value.as_slice())
    }

    #[test]
    fn base_roundtrip() {
        let d = MemDisk::new();
        let m = sample();
        Segment::base(&m).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.mem, m);
        assert_eq!(chain.segments, 1);
        assert_eq!(chain.valid_end, d.len());
    }

    #[test]
    fn empty_device_loads_empty_chain() {
        let d = MemDisk::new();
        let chain = load_chain(&d).unwrap();
        assert!(chain.mem.is_empty());
        assert_eq!(chain.segments, 0);
    }

    #[test]
    fn deltas_apply_in_order_over_base() {
        let d = MemDisk::new();
        Segment::base(&sample()).write(&d).unwrap();
        let mut d1 = BTreeMap::new();
        d1.insert(b"alpha".to_vec(), Some(b"2".to_vec()));
        d1.insert(b"gamma".to_vec(), Some(b"3".to_vec()));
        Segment::delta(&d1).write(&d).unwrap();
        let mut d2 = BTreeMap::new();
        d2.insert(b"beta".to_vec(), None); // tombstone
        d2.insert(b"alpha".to_vec(), Some(b"4".to_vec()));
        Segment::delta(&d2).write(&d).unwrap();

        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.segments, 3);
        assert_eq!(value(&chain.mem, b"alpha"), Some(&b"4"[..]));
        assert_eq!(value(&chain.mem, b"beta"), None);
        assert_eq!(value(&chain.mem, b"gamma"), Some(&b"3"[..]));
        assert_eq!(
            value(&chain.mem, b""),
            Some(&b"empty-key"[..]),
            "untouched base key survives"
        );
    }

    #[test]
    fn torn_delta_falls_back_to_previous_chain() {
        let d = MemDisk::new();
        Segment::base(&sample()).write(&d).unwrap();
        let mut d1 = BTreeMap::new();
        d1.insert(b"alpha".to_vec(), Some(b"2".to_vec()));
        Segment::delta(&d1).write(&d).unwrap();
        let good_end = d.len();

        // A second delta whose tail is torn: drop its last byte (the CRC
        // cannot validate).
        let mut d2 = BTreeMap::new();
        d2.insert(b"alpha".to_vec(), Some(b"99".to_vec()));
        Segment::delta(&d2).write(&d).unwrap();
        let raw = d.read(0, d.len() as usize).unwrap();
        d.reset(raw[..raw.len() - 1].to_vec()).unwrap();

        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.segments, 2, "stops at the previous complete segment");
        assert_eq!(chain.valid_end, good_end);
        assert_eq!(value(&chain.mem, b"alpha"), Some(&b"2"[..]));
    }

    #[test]
    fn corrupt_base_treated_as_absent() {
        let d = MemDisk::new();
        Segment::base(&sample()).write(&d).unwrap();
        let raw = d.read(0, d.len() as usize).unwrap();
        let mut bad = raw.clone();
        bad[10] ^= 0xFF;
        d.reset(bad).unwrap();
        let chain = load_chain(&d).unwrap();
        assert!(chain.mem.is_empty());
        assert_eq!(chain.segments, 0);
        assert_eq!(chain.valid_end, 0);
    }

    #[test]
    fn delta_without_base_treated_as_absent() {
        let d = MemDisk::new();
        let mut d1 = BTreeMap::new();
        d1.insert(b"k".to_vec(), Some(b"v".to_vec()));
        Segment::delta(&d1).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.segments, 0);
        assert!(chain.mem.is_empty());
    }

    #[test]
    fn short_garbage_treated_as_absent() {
        let d = MemDisk::new();
        d.reset(vec![1, 2, 3]).unwrap();
        let chain = load_chain(&d).unwrap();
        assert!(chain.mem.is_empty());
        assert_eq!(chain.segments, 0);
    }

    #[test]
    fn new_base_replaces_previous_chain() {
        let d = MemDisk::new();
        Segment::base(&sample()).write(&d).unwrap();
        let mut d1 = BTreeMap::new();
        d1.insert(b"x".to_vec(), Some(b"y".to_vec()));
        Segment::delta(&d1).write(&d).unwrap();
        let m2 = tree([(b"only", b"one")]);
        Segment::base(&m2).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.segments, 1);
        assert_eq!(chain.mem, m2);
    }

    #[test]
    fn a_delta_is_the_current_generation_plus_tombstones_for_absent_deleted_keys() {
        let mut mem = tree([(b"old", b"0"), (b"rewritten", b"1"), (b"recreated", b"2")]);
        for k in [&b"rewritten"[..], b"recreated", b"new"] {
            mem.insert(
                k.to_vec(),
                Stamped {
                    value: b"now".to_vec(),
                    gen: 3,
                },
            );
        }
        mem.get_mut(&b"old"[..]).expect("loaded above").gen = 2;
        let deleted = [
            b"recreated".to_vec(),
            b"gone".to_vec(),
            b"never-there".to_vec(),
            b"gone".to_vec(),
        ];
        let delta = delta_since(&mem, 3, &deleted);
        let now = Some(b"now".to_vec());
        let want: BTreeMap<Vec<u8>, Option<Vec<u8>>> = [
            (b"gone".to_vec(), None),
            (b"never-there".to_vec(), None),
            (b"new".to_vec(), now.clone()),
            (b"recreated".to_vec(), now.clone()),
            (b"rewritten".to_vec(), now),
        ]
        .into_iter()
        .collect();
        assert_eq!(delta, want, "an entry of an earlier generation stays out");
    }

    #[test]
    fn empty_tree_roundtrips() {
        let d = MemDisk::new();
        Segment::base(&Tree::new()).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert!(chain.mem.is_empty());
        assert_eq!(chain.segments, 1);
    }

    /// Append a delta whose body claims `count` entries and holds `entries`,
    /// framed with a valid CRC.
    fn framed_delta(d: &MemDisk, count: u64, entries: &[(&[u8], &[u8])]) {
        let mut body = Vec::new();
        put::u64(&mut body, count);
        for (k, v) in entries {
            put::bytes(&mut body, k);
            put::u8(&mut body, 1);
            put::bytes(&mut body, v);
        }
        d.append(&Segment::framed(KIND_DELTA, &body).frame).unwrap();
    }

    #[test]
    fn an_undecodable_delta_is_not_half_applied() {
        let d = MemDisk::new();
        Segment::base(&tree([(b"a", b"1")])).write(&d).unwrap();
        let base_end = d.len();
        framed_delta(&d, 2, &[(b"a", b"2")]);
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.segments, 1, "the delta does not count");
        assert_eq!(chain.valid_end, base_end);
        assert_eq!(
            value(&chain.mem, b"a"),
            Some(&b"1"[..]),
            "nor reach the tree"
        );
    }

    #[test]
    fn a_segment_length_past_any_device_is_an_absent_chain() {
        for len in [u64::MAX - 8, u64::MAX, u64::MAX - 16] {
            let d = MemDisk::new();
            let mut frame = Vec::new();
            put::u32(&mut frame, SEG_MAGIC);
            put::u8(&mut frame, KIND_BASE);
            put::u64(&mut frame, len);
            frame.extend_from_slice(&[0; 16]);
            d.reset(frame).unwrap();
            let chain = load_chain(&d).unwrap();
            assert_eq!(chain.segments, 0, "len {len}");
            assert!(chain.mem.is_empty());
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
        for (what, frame) in [
            ("flipped crc", flipped),
            ("cut device", cut),
            ("short body", short),
            ("no count", no_count),
        ] {
            let d = MemDisk::new();
            d.reset(frame).unwrap();
            let chain = load_chain(&d).unwrap();
            assert_eq!(chain.segments, 0, "{what}");
            assert!(chain.mem.is_empty(), "{what}");
            assert_eq!((chain.valid_end, chain.tail_crc), (0, 0), "{what}");
        }
    }

    #[test]
    fn values_longer_than_a_window_stream_through() {
        let big = vec![7u8; SCAN_WINDOW * 2 + 5];
        let m = tree([(b"a", b"x"), (b"b", &big), (b"c", b"y")]);
        let d = MemDisk::new();
        Segment::base(&m).write(&d).unwrap();
        let mut d1 = BTreeMap::new();
        d1.insert(b"d".to_vec(), Some(big.clone()));
        d1.insert(b"a".to_vec(), None);
        Segment::delta(&d1).write(&d).unwrap();
        let chain = load_chain(&d).unwrap();
        assert_eq!(chain.segments, 2);
        assert_eq!(chain.valid_end, d.len());
        assert_eq!(value(&chain.mem, b"b"), Some(&big[..]));
        assert_eq!(value(&chain.mem, b"d"), Some(&big[..]));
        assert_eq!(value(&chain.mem, b"a"), None);
        assert_eq!(chain.mem.len(), 3);
    }
}
