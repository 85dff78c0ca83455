//! Pins the on-disk log format and the scan's stopping rule.
//!
//! `Wal::append` builds each frame in one buffer (`Wal::append_frames`: a
//! whole commit's frames end to end, one device write) and `Wal::scan` reads
//! the device in windows; both replaced simpler code (two buffers per frame,
//! two device reads per record) that this file keeps as test-only references.
//! A log written by either encoder must read back identically through either
//! scanner, byte for byte and offset for offset — including where a torn tail
//! stops the scan, and for records that straddle a scan-window boundary.

use rrq_storage::checksum::crc32;
use rrq_storage::disk::{CrashStyle, Disk, DiskStats, SimDisk, TornWriteMode};
use rrq_storage::kv::{KvStore, WriteOp};
use rrq_storage::recovery::replay;
use rrq_storage::wal::{Frames, RecordKind, Wal, SCAN_WINDOW};
use rrq_storage::{StorageError, StorageResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MAGIC: u16 = 0x51CB;
const FRAME_HEADER: usize = 10;

fn kind_byte(kind: RecordKind) -> u8 {
    match kind {
        RecordKind::KvPut => 1,
        RecordKind::KvDelete => 2,
        RecordKind::Prepare => 3,
        RecordKind::Commit => 4,
        RecordKind::Abort => 5,
        RecordKind::Checkpoint => 6,
        RecordKind::KvMove => 7,
        RecordKind::Custom(b) => b,
    }
}

/// The encoder `Wal::append` used to be: the body in one buffer, the frame
/// in a second.
fn old_frame(txn: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&txn.to_le_bytes());
    body.push(kind_byte(kind));
    body.extend_from_slice(payload);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// `(lsn, txn, kind byte, payload)` of one scanned record.
type Rec = (u64, u64, u8, Vec<u8>);

/// The scanner `Wal::scan` used to be: a header read and a body read per
/// record, stopping at the first frame that is cut short, has a bad magic,
/// or fails its CRC.
fn old_scan(disk: &dyn Disk, start: u64) -> (Vec<Rec>, u64) {
    let end = disk.len();
    let mut records = Vec::new();
    let mut off = start;
    while off + FRAME_HEADER as u64 <= end {
        let h = disk.read(off, FRAME_HEADER).unwrap();
        if u16::from_le_bytes([h[0], h[1]]) != MAGIC {
            break;
        }
        let len = u32::from_le_bytes([h[2], h[3], h[4], h[5]]) as usize;
        let crc = u32::from_le_bytes([h[6], h[7], h[8], h[9]]);
        if off + (FRAME_HEADER + len) as u64 > end {
            break;
        }
        let body = disk.read(off + FRAME_HEADER as u64, len).unwrap();
        if crc32(&body) != crc {
            break;
        }
        let txn = u64::from_le_bytes(body[..8].try_into().unwrap());
        records.push((off, txn, body[8], body[9..].to_vec()));
        off += (FRAME_HEADER + len) as u64;
    }
    (records, off)
}

fn new_scan(wal: &Wal, start: u64) -> (Vec<Rec>, u64) {
    let (records, valid_end) = wal.scan(start).unwrap();
    let records = records
        .into_iter()
        .map(|r| (r.lsn, r.txn, kind_byte(r.kind), r.payload))
        .collect();
    (records, valid_end)
}

fn image(disk: &SimDisk) -> Vec<u8> {
    disk.read(0, disk.len() as usize).unwrap()
}

fn put_payload(key: &[u8], value: &[u8]) -> Vec<u8> {
    WriteOp::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    }
    .encode_payload()
}

#[test]
fn a_fixed_record_frames_to_pinned_bytes() {
    let disk = SimDisk::new();
    let wal = Wal::new(Arc::new(disk.clone()));
    wal.append(0x0102_0304_0506_0708, RecordKind::KvPut, b"k=v")
        .unwrap();
    #[rustfmt::skip]
    let pinned: [u8; 22] = [
        0xCB, 0x51,                                     // magic
        0x0C, 0x00, 0x00, 0x00,                         // body length 12
        0xD5, 0xD3, 0xD1, 0xF9,                         // crc32(body)
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // txn
        0x01,                                           // kind KvPut
        0x6B, 0x3D, 0x76,                               // "k=v"
    ];
    assert_eq!(image(&disk), pinned);
    assert_eq!(
        old_frame(0x0102_0304_0506_0708, RecordKind::KvPut, b"k=v"),
        pinned
    );
    // The batch entry point frames the same bytes, whatever the buffer held
    // before.
    let disk2 = SimDisk::new();
    let wal2 = Wal::new(Arc::new(disk2.clone()));
    let mut buf = vec![0xEE; 100];
    let mut frames = Frames::new(&mut buf);
    frames.push(0x0102_0304_0506_0708, RecordKind::KvPut, |b| {
        b.extend_from_slice(b"k=v")
    });
    assert_eq!(wal2.append_frames(frames).unwrap(), pinned.len() as u64);
    assert_eq!(image(&disk2), pinned);
}

#[test]
fn a_move_record_frames_to_pinned_bytes_and_carries_no_value() {
    // `rename` logs the two keys and nothing else, whatever the value's size.
    let wal = SimDisk::new();
    let (store, _) = KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(SimDisk::new()),
        rrq_obs::Obs::default(),
    )
    .unwrap();
    store.begin(5).unwrap();
    store.put(5, b"e/q", &[0x77; 4096]).unwrap();
    store.commit(5).unwrap();
    let before = wal.len();
    store.begin(6).unwrap();
    store.rename(6, b"e/q", b"d/1").unwrap();
    store.commit(6).unwrap();
    #[rustfmt::skip]
    let pinned: [u8; 52] = [
        0xCB, 0x51,                                     // magic
        0x17, 0x00, 0x00, 0x00,                         // body length 23
        0x12, 0x8F, 0xDE, 0x4F,                         // crc32(body)
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // txn (incarnation 2)
        0x07,                                           // kind KvMove
        0x03, 0x00, 0x00, 0x00, 0x65, 0x2F, 0x71,       // from: len 3, "e/q"
        0x03, 0x00, 0x00, 0x00, 0x64, 0x2F, 0x31,       // to: len 3, "d/1"
        0xCB, 0x51,                                     // magic
        0x09, 0x00, 0x00, 0x00,                         // body length 9
        0x31, 0xF8, 0x92, 0xCF,                         // crc32(body)
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // txn
        0x04,                                           // kind Commit
    ];
    let tail = wal.read(before, (wal.len() - before) as usize).unwrap();
    let op = WriteOp::Move {
        from: b"e/q".to_vec(),
        to: b"d/1".to_vec(),
    };
    let mut want = old_frame(2, RecordKind::KvMove, &op.encode_payload());
    want.extend(old_frame(2, RecordKind::Commit, b""));
    assert_eq!(tail, want, "the reference encoder agrees");
    assert_eq!(tail, pinned);
    assert_eq!(WriteOp::decode_move(&op.encode_payload()).unwrap(), op);
    // The frame checksum covers both keys: flip a byte of `to` and the scan
    // stops at the record instead of replaying a move to somewhere else.
    let image = image(&wal);
    let corrupt = SimDisk::new();
    let mut bytes = image.clone();
    bytes[before as usize + 32] ^= 0x01;
    corrupt.append(&bytes).unwrap();
    corrupt.sync().unwrap();
    let (records, valid_end) = Wal::new(Arc::new(corrupt)).scan(0).unwrap();
    assert_eq!(valid_end, before);
    assert_eq!(records.len(), 2, "the put and its commit");
}

#[test]
fn a_batch_is_one_device_write_of_the_bytes_its_records_make_one_by_one() {
    let big = vec![0x3C; 5000];
    let del = WriteOp::Delete {
        key: b"alpha".to_vec(),
    };
    let records = [
        (7, RecordKind::KvPut, put_payload(b"alpha", &big)),
        (7, RecordKind::KvDelete, del.encode_payload()),
        (7, RecordKind::KvPut, put_payload(b"", b"")),
        (7, RecordKind::Commit, 41u64.to_le_bytes().to_vec()),
    ];
    let (one_by_one, batched) = (SimDisk::new(), SimDisk::new());
    // Both logs start behind an earlier record, so offsets are not zero-based.
    let wal_a = Wal::new(Arc::new(one_by_one.clone()));
    let wal_b = Wal::new(Arc::new(batched.clone()));
    wal_a.append(1, RecordKind::Abort, b"").unwrap();
    wal_b.append(1, RecordKind::Abort, b"").unwrap();

    for (txn, kind, payload) in &records {
        wal_a.append(*txn, *kind, payload).unwrap();
    }
    let mut buf = Vec::new();
    let mut frames = Frames::new(&mut buf);
    for (txn, kind, payload) in &records {
        frames.push(*txn, *kind, |b| b.extend_from_slice(payload));
    }
    let end = wal_b.append_frames(frames).unwrap();

    assert_eq!(image(&batched), image(&one_by_one));
    assert_eq!(end, batched.len(), "the offset a force must reach");
    assert_eq!(wal_b.records_appended(), wal_a.records_appended());
    assert_eq!(one_by_one.stats().appends, 1 + records.len() as u64);
    assert_eq!(batched.stats().appends, 2);
    assert_eq!(new_scan(&wal_b, 0), new_scan(&wal_a, 0));
}

#[test]
fn the_store_writes_the_log_the_old_encoder_would() {
    // Internal ids start at 1 on a fresh store, so the exact image is
    // predictable: data records in op order, then the commit record (no
    // payload); prepare carries the caller's token.
    let wal = SimDisk::new();
    let (store, _) = KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(SimDisk::new()),
        rrq_obs::Obs::default(),
    )
    .unwrap();
    let big = vec![0xA5; 5000];
    store.begin(77).unwrap();
    store.put(77, b"alpha", b"1").unwrap();
    store.put(77, b"beta", &big).unwrap();
    store.delete(77, b"alpha").unwrap();
    store.commit(77).unwrap();
    store.begin(78).unwrap();
    store.put(78, b"gamma", b"").unwrap();
    store.prepare(78).unwrap();
    store.commit(78).unwrap();

    let mut want = Vec::new();
    want.extend(old_frame(
        1,
        RecordKind::KvPut,
        &put_payload(b"alpha", b"1"),
    ));
    want.extend(old_frame(1, RecordKind::KvPut, &put_payload(b"beta", &big)));
    let del = WriteOp::Delete {
        key: b"alpha".to_vec(),
    };
    want.extend(old_frame(1, RecordKind::KvDelete, &del.encode_payload()));
    want.extend(old_frame(1, RecordKind::Commit, b""));
    want.extend(old_frame(2, RecordKind::KvPut, &put_payload(b"gamma", b"")));
    want.extend(old_frame(2, RecordKind::Prepare, &78u64.to_le_bytes()));
    want.extend(old_frame(2, RecordKind::Commit, b""));
    assert_eq!(image(&wal), want);
    // One device write per commit point: the first commit (three data records
    // and the commit record), the prepare (one data record and the prepare
    // record), the second commit (its record alone).
    assert_eq!(wal.stats().appends, 3);
}

#[test]
fn an_old_encoder_image_scans_and_replays_identically() {
    let disk = SimDisk::new();
    let frames = [
        old_frame(1, RecordKind::KvPut, &put_payload(b"a", b"one")),
        old_frame(2, RecordKind::KvPut, &put_payload(b"a", b"two")),
        old_frame(2, RecordKind::Commit, &0u64.to_le_bytes()),
        old_frame(3, RecordKind::KvPut, &put_payload(b"c", &[9; 3000])),
        old_frame(3, RecordKind::Prepare, &33u64.to_le_bytes()),
        old_frame(9, RecordKind::Custom(0xC0), b"\x01"),
        old_frame(1, RecordKind::Commit, &1u64.to_le_bytes()),
        old_frame(0, RecordKind::Checkpoint, b""),
    ];
    for f in &frames {
        disk.append(f).unwrap();
    }
    disk.sync().unwrap();
    let wal = Wal::new(Arc::new(disk.clone()));
    let (old, old_end) = old_scan(&disk, 0);
    assert_eq!(old.len(), frames.len());
    assert_eq!(new_scan(&wal, 0), (old.clone(), old_end));
    // From a midpoint, too.
    assert_eq!(new_scan(&wal, old[3].0), (old[3..].to_vec(), old_end));

    let out = replay(&wal, Default::default()).unwrap();
    assert_eq!(out.valid_end, old_end);
    assert_eq!(out.committed_txns, 2);
    assert_eq!(
        out.redo,
        vec![
            WriteOp::Put {
                key: b"a".to_vec(),
                value: b"two".to_vec()
            },
            WriteOp::Put {
                key: b"a".to_vec(),
                value: b"one".to_vec()
            },
        ],
        "epoch order: txn 2 (epoch 0) before txn 1 (epoch 1)"
    );
    assert_eq!(out.in_doubt.len(), 1);
    assert_eq!(out.in_doubt[&33].len(), 1);
}

#[test]
fn a_checksummed_frame_that_cannot_be_a_record_is_an_error_not_a_panic() {
    // Valid magic, length and CRC, but the body is shorter than txn + kind,
    // or names a kind nobody writes: not a torn tail (the CRC vouches for
    // the bytes), so the scan reports corruption at that frame's offset.
    let good = old_frame(1, RecordKind::KvPut, b"ok");
    for body in [&[1u8, 2, 3][..], &[0, 0, 0, 0, 0, 0, 0, 0, 8][..]] {
        let disk = SimDisk::new();
        disk.append(&good).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(body).to_le_bytes());
        frame.extend_from_slice(body);
        disk.append(&frame).unwrap();
        disk.sync().unwrap();
        let wal = Wal::new(Arc::new(disk.clone()));
        match wal.scan(0) {
            Err(StorageError::Corrupt { offset, .. }) => assert_eq!(offset, good.len() as u64),
            other => panic!("expected a corrupt-frame error, got {other:?}"),
        }
    }
}

/// Synced prefix of `durable` records, then `tail` unsynced ones.
fn log_with_tail(durable: &[usize], tail: &[usize]) -> (SimDisk, Wal) {
    let disk = SimDisk::new();
    let wal = Wal::new(Arc::new(disk.clone()));
    for (i, &len) in durable.iter().enumerate() {
        wal.append(i as u64, RecordKind::KvPut, &vec![i as u8; len])
            .unwrap();
    }
    wal.sync().unwrap();
    for (i, &len) in tail.iter().enumerate() {
        wal.append(100 + i as u64, RecordKind::KvPut, &vec![0x5A; len])
            .unwrap();
    }
    (disk, wal)
}

#[test]
fn every_torn_write_mode_stops_the_scan_where_it_used_to() {
    // Tails of one small record, several records, a record larger than a
    // scan window, and a prefix long enough that the tear lies in a later
    // window than the scan's start.
    let big = SCAN_WINDOW + 1234;
    let shapes: [(&[usize], &[usize]); 5] = [
        (&[10, 20], &[30]),
        (&[10], &[5, 700, 0, 64]),
        (&[], &[40, 40]),
        (&[100], &[big]),
        (&[30_000, 30_000, 30_000], &[500, 30_000]),
    ];
    for (durable, tail) in shapes {
        for mode in TornWriteMode::ALL {
            let (disk, wal) = log_with_tail(durable, tail);
            let durable_end = disk.durable_len();
            disk.crash_torn(mode);
            let (old, old_end) = old_scan(&disk, 0);
            let (new, new_end) = new_scan(&wal, 0);
            assert_eq!(new_end, old_end, "{mode:?} {durable:?}+{tail:?}");
            assert_eq!(new, old, "{mode:?} {durable:?}+{tail:?}");
            assert!(old_end >= durable_end, "synced records always survive");
            assert!(old_end < disk.len(), "the torn frame is never accepted");
        }
        // And the clean cut, for completeness.
        let (disk, wal) = log_with_tail(durable, tail);
        disk.crash(CrashStyle::DropVolatile);
        assert_eq!(new_scan(&wal, 0), old_scan(&disk, 0));
        assert_eq!(new_scan(&wal, 0).1, disk.len());
    }
}

/// A device that remembers the largest read it served.
struct MaxRead {
    disk: SimDisk,
    max: AtomicUsize,
}

impl Disk for MaxRead {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        self.disk.append(data)
    }
    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        self.max.fetch_max(len, Ordering::SeqCst);
        self.disk.read(offset, len)
    }
    fn len(&self) -> u64 {
        self.disk.len()
    }
    fn sync(&self) -> StorageResult<()> {
        self.disk.sync()
    }
    fn reset(&self, contents: Vec<u8>) -> StorageResult<()> {
        self.disk.reset(contents)
    }
    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.disk.truncate(len)
    }
    fn stats(&self) -> DiskStats {
        self.disk.stats()
    }
}

#[test]
fn records_straddling_a_window_boundary_are_read_exactly_once() {
    // First record sized so that the second frame starts `lead` bytes before
    // the window boundary: the boundary then falls inside its header
    // (lead < 10), right after its header, inside its body, or exactly at
    // its end (the next frame starts a window).
    let second = 300; // payload bytes of the straddling record
    let second_frame = FRAME_HEADER + 9 + second;
    for lead in [1, 5, 9, 10, 11, 150, second_frame - 1, second_frame] {
        let first = SCAN_WINDOW - lead - (FRAME_HEADER + 9);
        let dev = Arc::new(MaxRead {
            disk: SimDisk::new(),
            max: AtomicUsize::new(0),
        });
        let wal = Wal::new(dev.clone());
        let sizes = [first, second, 40, SCAN_WINDOW * 2 + 17, 0, 8];
        for (i, &len) in sizes.iter().enumerate() {
            wal.append(i as u64 + 1, RecordKind::KvPut, &vec![i as u8 + 1; len])
                .unwrap();
        }
        wal.sync().unwrap();

        let (old, old_end) = old_scan(&dev.disk, 0);
        assert_eq!(old.len(), sizes.len());
        assert_eq!(old_end, dev.disk.len());
        dev.max.store(0, Ordering::SeqCst);
        let (new, new_end) = new_scan(&wal, 0);
        assert_eq!(new_end, old_end, "lead {lead}");
        assert_eq!(new, old, "lead {lead}: each record once, in order");
        // Bounded reads: never more than a window, except the one frame that
        // is itself larger than a window.
        let largest_frame = FRAME_HEADER + 9 + SCAN_WINDOW * 2 + 17;
        assert!(dev.max.load(Ordering::SeqCst) <= largest_frame);
        assert!(
            (dev.max.load(Ordering::SeqCst) as u64) < dev.disk.len(),
            "the log is never read whole"
        );
    }
}
