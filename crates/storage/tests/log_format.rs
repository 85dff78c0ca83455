//! Pins the on-disk log format and the scan's stopping rule.
//!
//! `Wal::append_with` builds each frame in one reused buffer, one device
//! write per record, and `Wal::scan` reads the device in windows; both
//! replaced simpler code (two buffers per frame, two device reads per record)
//! that this file keeps as test-only references. A log written by either
//! encoder must read back identically through either scanner, byte for byte
//! and offset for offset — including where a torn tail stops the scan, and
//! for records that straddle a scan-window boundary.
//!
//! A store writes one record per commit point, its write set inside as an op
//! list (`WriteOp::encode_list`); `ref_list` is that format written out by
//! hand, and the pinned images below hold it to the byte.

use rrq_storage::checksum::crc32;
use rrq_storage::disk::{CrashStyle, Disk, DiskStats, SimDisk, TornWriteMode};
use rrq_storage::kv::{KvStore, WriteOp};
use rrq_storage::recovery::replay;
use rrq_storage::wal::{RecordKind, Wal, SCAN_WINDOW};
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

/// The op-list format written out by hand: per op a tag byte (the record
/// kind's), then each key or value behind its LEB128 length.
fn ref_list(ops: &[WriteOp]) -> Vec<u8> {
    fn field(out: &mut Vec<u8>, bytes: &[u8]) {
        let mut n = bytes.len();
        while n >= 0x80 {
            out.push(n as u8 | 0x80);
            n >>= 7;
        }
        out.push(n as u8);
        out.extend_from_slice(bytes);
    }
    let mut out = Vec::new();
    for op in ops {
        match op {
            WriteOp::Put { key, value } => {
                out.push(kind_byte(RecordKind::KvPut));
                field(&mut out, key);
                field(&mut out, value);
            }
            WriteOp::Delete { key } => {
                out.push(kind_byte(RecordKind::KvDelete));
                field(&mut out, key);
            }
            WriteOp::Move { from, to } => {
                out.push(kind_byte(RecordKind::KvMove));
                field(&mut out, from);
                field(&mut out, to);
            }
        }
    }
    out
}

/// A `Prepare` record's payload: the caller's token, then the op list.
fn ref_prepare(token: u64, ops: &[WriteOp]) -> Vec<u8> {
    let mut out = token.to_le_bytes().to_vec();
    out.extend(ref_list(ops));
    out
}

fn put(key: &[u8], value: &[u8]) -> WriteOp {
    WriteOp::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    }
}

fn open_store(wal: &SimDisk) -> Arc<KvStore> {
    KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(SimDisk::new()),
        rrq_obs::Obs::default(),
    )
    .unwrap()
    .0
}

#[test]
fn a_fixed_record_frames_to_pinned_bytes() {
    #[rustfmt::skip]
    let pinned: [u8; 22] = [
        0xCB, 0x51,                                     // magic
        0x0C, 0x00, 0x00, 0x00,                         // body length 12
        0xD5, 0xD3, 0xD1, 0xF9,                         // crc32(body)
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // txn
        0x01,                                           // kind KvPut
        0x6B, 0x3D, 0x76,                               // "k=v"
    ];
    // A body long enough for the checksum's carry-less fold, which a 12-byte
    // one never reaches. Its CRC was worked out byte at a time with the
    // bytewise table algorithm, not with `crc32`, which `old_frame` calls.
    let long_payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    #[rustfmt::skip]
    let mut long_pinned = vec![
        0xCB, 0x51,                                     // magic
        0x09, 0x10, 0x00, 0x00,                         // body length 4 105
        0xB8, 0x05, 0xFE, 0x70,                         // crc32(body)
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // txn
        0x01,                                           // kind KvPut
    ];
    long_pinned.extend_from_slice(&long_payload);
    for (payload, pinned) in [(&b"k=v"[..], &pinned[..]), (&long_payload, &long_pinned)] {
        let disk = SimDisk::new();
        let wal = Wal::new(Arc::new(disk.clone()));
        wal.append(0x0102_0304_0506_0708, RecordKind::KvPut, payload)
            .unwrap();
        assert_eq!(image(&disk), pinned);
        assert_eq!(
            old_frame(0x0102_0304_0506_0708, RecordKind::KvPut, payload),
            pinned
        );
        assert_eq!(new_scan(&wal, 0).0.len(), 1, "the scan accepts the frame");
    }
}

#[test]
fn a_reused_buffer_frames_the_bytes_append_does() {
    // The entry point a store's commit point uses frames into the append
    // latch's buffer, whatever it held before, and hands the device one
    // write per record: the same bytes as `Wal::append`.
    let (one_by_one, reused) = (SimDisk::new(), SimDisk::new());
    let wal_a = Wal::new(Arc::new(one_by_one.clone()));
    let wal_b = Wal::new(Arc::new(reused.clone()));
    let records = [
        (1, RecordKind::Abort, Vec::new()),
        (
            7,
            RecordKind::Commit,
            ref_list(&[put(b"alpha", &[0x3C; 5000])]),
        ),
        (7, RecordKind::Prepare, ref_prepare(41, &[put(b"", b"")])),
        (0, RecordKind::Checkpoint, b"mark".to_vec()),
    ];
    let mut buf = vec![0xEE; 100];
    for (txn, kind, payload) in &records {
        let lsn = wal_a.append(*txn, *kind, payload).unwrap();
        let end = wal_b
            .append_with(&mut buf, *txn, *kind, |b| b.extend_from_slice(payload))
            .unwrap();
        assert_eq!(end, reused.len(), "the offset a force must reach");
        assert_eq!(end - buf.len() as u64, lsn);
    }
    assert_eq!(image(&reused), image(&one_by_one));
    assert_eq!(wal_b.records_appended(), records.len() as u64);
    assert_eq!(reused.stats().appends, records.len() as u64);
    assert_eq!(new_scan(&wal_b, 0), new_scan(&wal_a, 0));
}

#[test]
fn a_multi_op_commit_and_a_prepare_frame_to_pinned_bytes() {
    // One frame per commit point: the one-phase commit of a put, a delete and
    // a move; then a prepare of one put under the caller's token 11, and the
    // commit that resolves it, which carries nothing.
    let wal = SimDisk::new();
    let store = open_store(&wal);
    store.begin(10).unwrap();
    store.put(10, b"k", b"v").unwrap();
    store.delete(10, b"a").unwrap();
    store.rename(10, b"e/1", b"d/2").unwrap();
    store.commit(10).unwrap();
    store.begin(11).unwrap();
    store.put(11, b"p", b"q").unwrap();
    store.prepare(11).unwrap();
    store.commit(11).unwrap();
    #[rustfmt::skip]
    let pinned: [u8; 87] = [
        0xCB, 0x51,                                     // magic
        0x1A, 0x00, 0x00, 0x00,                         // body length 26
        0x10, 0x90, 0xA8, 0xBC,                         // crc32(body)
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // txn (incarnation 1)
        0x04,                                           // kind Commit
        0x01, 0x01, 0x6B, 0x01, 0x76,                   // put: "k" = "v"
        0x02, 0x01, 0x61,                               // delete: "a"
        0x07, 0x03, 0x65, 0x2F, 0x31, 0x03, 0x64, 0x2F, 0x32, // move: "e/1" -> "d/2"

        0xCB, 0x51,                                     // magic
        0x16, 0x00, 0x00, 0x00,                         // body length 22
        0x76, 0xB4, 0xE5, 0xF2,                         // crc32(body)
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // txn (incarnation 2)
        0x03,                                           // kind Prepare
        0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // caller's token 11
        0x01, 0x01, 0x70, 0x01, 0x71,                   // put: "p" = "q"

        0xCB, 0x51,                                     // magic
        0x09, 0x00, 0x00, 0x00,                         // body length 9
        0x31, 0xF8, 0x92, 0xCF,                         // crc32(body)
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // txn
        0x04,                                           // kind Commit, no ops
    ];
    assert_eq!(image(&wal), pinned);
    assert_eq!(wal.stats().appends, 3, "one device write per commit point");
    let ops = [
        put(b"k", b"v"),
        WriteOp::Delete { key: b"a".to_vec() },
        WriteOp::Move {
            from: b"e/1".to_vec(),
            to: b"d/2".to_vec(),
        },
    ];
    let mut want = old_frame(1, RecordKind::Commit, &ref_list(&ops));
    want.extend(old_frame(
        2,
        RecordKind::Prepare,
        &ref_prepare(11, &[put(b"p", b"q")]),
    ));
    want.extend(old_frame(2, RecordKind::Commit, b""));
    assert_eq!(want, pinned, "the reference encoders agree");
}

#[test]
fn a_move_record_frames_to_pinned_bytes_and_carries_no_value() {
    // `rename` logs the two keys and nothing else, whatever the value's size.
    let wal = SimDisk::new();
    let store = open_store(&wal);
    store.begin(5).unwrap();
    store.put(5, b"e/q", &[0x77; 4096]).unwrap();
    store.commit(5).unwrap();
    let before = wal.len();
    store.begin(6).unwrap();
    store.rename(6, b"e/q", b"d/1").unwrap();
    store.commit(6).unwrap();
    #[rustfmt::skip]
    let pinned: [u8; 28] = [
        0xCB, 0x51,                                     // magic
        0x12, 0x00, 0x00, 0x00,                         // body length 18
        0x05, 0x87, 0xA5, 0x74,                         // crc32(body)
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // txn (incarnation 2)
        0x04,                                           // kind Commit
        0x07,                                           // op tag KvMove
        0x03, 0x65, 0x2F, 0x71,                         // from: len 3, "e/q"
        0x03, 0x64, 0x2F, 0x31,                         // to: len 3, "d/1"
    ];
    let tail = wal.read(before, (wal.len() - before) as usize).unwrap();
    let op = WriteOp::Move {
        from: b"e/q".to_vec(),
        to: b"d/1".to_vec(),
    };
    let want = old_frame(2, RecordKind::Commit, &ref_list(std::slice::from_ref(&op)));
    assert_eq!(tail, want, "the reference encoder agrees");
    assert_eq!(tail, pinned);
    // The frame checksum covers both keys: flip a byte of `to` and the scan
    // stops at the record instead of replaying a move to somewhere else.
    let image = image(&wal);
    let corrupt = SimDisk::new();
    let mut bytes = image.clone();
    bytes[before as usize + 26] ^= 0x01;
    corrupt.append(&bytes).unwrap();
    corrupt.sync().unwrap();
    let (records, valid_end) = Wal::new(Arc::new(corrupt)).scan(0).unwrap();
    assert_eq!(valid_end, before);
    assert_eq!(records.len(), 1, "the put's commit");
}

#[test]
fn the_store_writes_the_log_the_old_encoder_would() {
    // Internal ids start at 1 on a fresh store, so the exact image is
    // predictable: a commit record holding the ops in op order; a prepare
    // record holding the caller's token and then its ops; the commit that
    // resolves the prepare, with no payload.
    let wal = SimDisk::new();
    let store = open_store(&wal);
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

    let ops = [
        put(b"alpha", b"1"),
        put(b"beta", &big),
        WriteOp::Delete {
            key: b"alpha".to_vec(),
        },
    ];
    let mut want = old_frame(1, RecordKind::Commit, &ref_list(&ops));
    want.extend(old_frame(
        2,
        RecordKind::Prepare,
        &ref_prepare(78, &[put(b"gamma", b"")]),
    ));
    want.extend(old_frame(2, RecordKind::Commit, b""));
    assert_eq!(image(&wal), want);
    // One record and one device write per commit point: the commit, the
    // prepare, the commit that resolves it.
    assert_eq!(wal.stats().appends, 3);
    // `beta`'s 5 000-byte value needs a two-byte length.
    assert_eq!(
        &ref_list(&ops[1..2])[..8],
        &[0x01, 0x04, b'b', b'e', b't', b'a', 0x88, 0x27]
    );
}

#[test]
fn an_old_encoder_image_scans_and_replays_identically() {
    let disk = SimDisk::new();
    let frames = [
        old_frame(
            1,
            RecordKind::Prepare,
            &ref_prepare(11, &[put(b"a", b"one")]),
        ),
        old_frame(2, RecordKind::Commit, &ref_list(&[put(b"a", b"two")])),
        old_frame(
            3,
            RecordKind::Prepare,
            &ref_prepare(33, &[put(b"c", &[9; 3000])]),
        ),
        old_frame(9, RecordKind::Custom(0xC0), b"\x01"),
        old_frame(1, RecordKind::Commit, b""),
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

    let mut redo = Vec::new();
    let out = replay(&wal, Default::default(), |op| redo.push(op)).unwrap();
    assert_eq!(out.valid_end, old_end);
    assert_eq!(out.committed_txns, 2);
    assert_eq!(
        redo,
        vec![put(b"a", b"two"), put(b"a", b"one")],
        "commit order: txn 2's record before txn 1's"
    );
    assert_eq!(out.in_doubt.len(), 1);
    assert_eq!(out.in_doubt[&33], vec![put(b"c", &[9; 3000])]);
}

/// A checksummed frame around `body` (txn + kind + payload, or anything).
fn frame_around(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

#[test]
fn a_checksummed_frame_that_cannot_be_a_record_is_an_error_not_a_panic() {
    // Valid magic, length and CRC, but the body is shorter than txn + kind,
    // or names a kind nobody writes: not a torn tail (the CRC vouches for
    // the bytes), so the scan reports corruption at that frame's offset.
    let good = old_frame(1, RecordKind::Commit, &ref_list(&[put(b"k", b"ok")]));
    let at = good.len() as u64;
    let disk_with = |bad: &[u8]| {
        let disk = SimDisk::new();
        disk.append(&good).unwrap();
        disk.append(bad).unwrap();
        disk.sync().unwrap();
        disk
    };
    for body in [&[1u8, 2, 3][..], &[0, 0, 0, 0, 0, 0, 0, 0, 8][..]] {
        let wal = Wal::new(Arc::new(disk_with(&frame_around(body))));
        match wal.scan(0) {
            Err(StorageError::Corrupt { offset, .. }) => assert_eq!(offset, at),
            other => panic!("expected a corrupt-frame error, got {other:?}"),
        }
    }
    // A well-formed record whose payload cannot be a write set: the log
    // scans it, the redo pass refuses it — at that record, as a whole, so
    // none of its ops (nor the good record's: the first pass checks every
    // record before the second hands an op to the sink) reach a tree.
    let whole = ref_list(&[put(b"k", b"v")]);
    let mut trailing = whole.clone();
    trailing.push(kind_byte(RecordKind::KvDelete));
    let cases: [(&str, Vec<u8>); 7] = [
        (
            "unknown tag",
            old_frame(2, RecordKind::Commit, &[0x09, 0x01, b'k']),
        ),
        (
            "a record kind as tag",
            old_frame(2, RecordKind::Commit, &[0x04]),
        ),
        (
            "length past the end",
            old_frame(2, RecordKind::Commit, &[0x01, 0x05, b'k', 0x00]),
        ),
        (
            "over-long varint",
            old_frame(2, RecordKind::Commit, &[&[0x02][..], &[0x80; 11]].concat()),
        ),
        (
            "trailing bytes",
            old_frame(2, RecordKind::Commit, &trailing),
        ),
        (
            "token cut short",
            old_frame(2, RecordKind::Prepare, &[7, 0, 0]),
        ),
        (
            "a standalone KvPut frame",
            old_frame(2, RecordKind::KvPut, &[0, 0, 0, 1, b'k', 0, 0, 0, 1, b'v']),
        ),
    ];
    for (what, bad) in cases {
        let disk = disk_with(&bad);
        let wal = Wal::new(Arc::new(disk.clone()));
        assert_eq!(wal.scan(0).unwrap().0.len(), 2, "{what}: CRC-valid frames");
        match replay(&wal, Default::default(), |op| {
            panic!("{what}: applied {op:?}")
        }) {
            Err(StorageError::Corrupt { offset, .. }) => assert_eq!(offset, at, "{what}"),
            other => panic!("{what}: expected a corrupt-record error, got {other:?}"),
        }
        let opened = KvStore::open(
            Arc::new(disk.clone()),
            Arc::new(SimDisk::new()),
            rrq_obs::Obs::default(),
        );
        assert!(
            matches!(opened, Err(StorageError::Corrupt { offset, .. }) if offset == at),
            "{what}: a store does not open over it"
        );
    }
}

#[test]
fn an_op_list_the_second_pass_skips_is_still_checked() {
    // Replay decodes only the counting commit records after the chain's
    // mark. Two records it never hands to the sink still fail the open if
    // their op list is corrupt: the first pass checks every record.
    let unknown_tag = old_frame(1, RecordKind::Commit, &[0x09, 0x01, b'k']);
    let open = |wal: &SimDisk, ckpt: &SimDisk| {
        KvStore::open(
            Arc::new(wal.clone()),
            Arc::new(ckpt.clone()),
            rrq_obs::Obs::default(),
        )
    };

    // (a) A commit attempt that a retry of the same transaction supersedes.
    let wal = SimDisk::new();
    wal.append(&unknown_tag).unwrap();
    wal.append(&old_frame(
        1,
        RecordKind::Commit,
        &ref_list(&[put(b"k", b"v")]),
    ))
    .unwrap();
    wal.sync().unwrap();
    match open(&wal, &SimDisk::new()).map(|(_, report)| report) {
        Err(StorageError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
        other => panic!("superseded attempt: expected a corrupt-record error, got {other:?}"),
    }

    // (b) A commit before the `Checkpoint` record that names the loaded
    // chain: the log reset after the segment was refused, so the whole log
    // survives beside a chain that covers it.
    let (wal, ckpt) = (SimDisk::new(), SimDisk::new());
    let (store, _) = open(&wal, &ckpt).unwrap();
    store.begin(1).unwrap();
    store.put(1, b"a", b"1").unwrap();
    store.commit(1).unwrap();
    let at = wal.len();
    wal.append(&unknown_tag).unwrap();
    wal.sync().unwrap();
    wal.fail_resets();
    assert!(store.checkpoint().is_err(), "the log reset is refused");
    wal.repair();
    store.begin(2).unwrap();
    store.put(2, b"b", b"2").unwrap();
    store.commit(2).unwrap();
    drop(store);
    match open(&wal, &ckpt).map(|(_, report)| report) {
        Err(StorageError::Corrupt { offset, .. }) => assert_eq!(offset, at),
        other => panic!("covered commit: expected a corrupt-record error, got {other:?}"),
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
