//! Regression tests: every [`TornWriteMode`] leaves a tail that the WAL's
//! frame validation rejects on recovery, so a committed-but-unsynced
//! transaction cleanly vanishes instead of corrupting the store.
//!
//! Each test writes one durable (synced) transaction, one volatile
//! (unsynced) transaction, tears the volatile tail with one mode, and then
//! runs the real recovery path: `Wal::scan` must stop at the tear and
//! `recovery::replay` must redo only the durable transaction. A transaction
//! is one record, its whole write set under one checksum, so a tear anywhere
//! in it loses all of it.

use rrq_storage::codec::Reader;
use rrq_storage::disk::{Disk, SimDisk, TornWriteMode};
use rrq_storage::kv::{KvStore, WriteOp};
use rrq_storage::recovery::replay;
use rrq_storage::wal::{RecordKind, Wal};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A one-phase `Commit` record's payload: one put.
fn put_payload(key: &[u8], value: &[u8]) -> Vec<u8> {
    let op = WriteOp::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    };
    let mut buf = Vec::new();
    WriteOp::encode_list(&[op], &mut buf);
    buf
}

/// Durable txn 1, volatile txn 2, then a torn crash with `mode`.
fn torn_log(mode: TornWriteMode) -> (SimDisk, Wal) {
    let disk = SimDisk::new();
    let wal = Wal::new(Arc::new(disk.clone()));
    wal.append(1, RecordKind::Commit, &put_payload(b"k", b"durable"))
        .unwrap();
    wal.sync().unwrap();
    wal.append(2, RecordKind::Commit, &put_payload(b"k", b"torn"))
        .unwrap();
    assert!(disk.volatile_len() > 0, "txn 2 must be unsynced");
    disk.crash_torn(mode);
    (disk, wal)
}

/// The shared oracle: recovery redoes exactly the durable transaction.
fn assert_only_durable_survives(wal: &Wal, mode: TornWriteMode) {
    let mut redo = Vec::new();
    let out = replay(wal, Default::default(), |op| redo.push(op)).unwrap();
    assert_eq!(out.committed_txns, 1, "{mode:?}");
    assert_eq!(redo.len(), 1, "{mode:?}");
    match &redo[0] {
        WriteOp::Put { value, .. } => assert_eq!(value, b"durable", "{mode:?}"),
        other => panic!("{mode:?}: unexpected redo {other:?}"),
    }
    assert!(out.in_doubt.is_empty(), "{mode:?}");
}

#[test]
fn midway_tear_is_rejected_on_recovery() {
    let (disk, wal) = torn_log(TornWriteMode::Midway);
    // Part of the torn frame physically reached the platter...
    assert!(disk.durable_len() > 0);
    // ...but the scan must stop before it.
    let (records, valid_end) = wal.scan(0).unwrap();
    assert!(valid_end < wal.len(), "the torn half-frame is dead bytes");
    assert_eq!(records.len(), 1, "only txn 1's record is valid");
    assert!(records.iter().all(|r| r.txn == 1));
    assert_only_durable_survives(&wal, TornWriteMode::Midway);
}

#[test]
fn full_length_corrupt_tear_is_caught_by_crc() {
    let (disk, wal) = torn_log(TornWriteMode::FullLengthCorrupt);
    let len_before = wal.len();
    // Every byte survived, with the very last one corrupted — the last byte
    // of txn 2's value, inside its one frame: the CRC over that frame's body
    // rejects the whole transaction, not just its last op.
    assert_eq!(disk.durable_len(), len_before);
    let (records, valid_end) = wal.scan(0).unwrap();
    assert_eq!(records.len(), 1, "txn 2's frame fails its CRC");
    assert_eq!(records[0].txn, 1);
    assert!(valid_end < len_before);
    assert_only_durable_survives(&wal, TornWriteMode::FullLengthCorrupt);
}

#[test]
fn header_only_tear_is_rejected_as_truncated() {
    let (_disk, wal) = torn_log(TornWriteMode::HeaderOnly);
    let (records, valid_end) = wal.scan(0).unwrap();
    // At most 6 bytes of the torn frame survive — less than a frame header,
    // so the scan treats the tail as truncated.
    assert!(wal.len() - valid_end <= 6);
    assert_eq!(records.len(), 1, "only txn 1's record is valid");
    assert!(records.iter().all(|r| r.txn == 1));
    assert_only_durable_survives(&wal, TornWriteMode::HeaderOnly);
}

/// End-to-end through `KvStore`: a torn crash, a reopened store, *new
/// committed work*, and a second (clean) crash. The reopen must discard the
/// torn tail before appending, or the second recovery loses the new work.
#[test]
fn kvstore_discards_torn_tail_so_later_commits_survive() {
    for mode in TornWriteMode::ALL {
        let wal_disk = SimDisk::new();
        let ckpt_disk = SimDisk::new();
        let open = || {
            KvStore::open(
                Arc::new(wal_disk.clone()),
                Arc::new(ckpt_disk.clone()),
                rrq_obs::Obs::default(),
            )
            .unwrap()
        };

        // Incarnation 1: one durable commit, one unsynced commit, torn crash.
        let (store, _) = open();
        store.begin(1).unwrap();
        store.put(1, b"k", b"durable").unwrap();
        store.commit(1).unwrap();
        let synced_len = wal_disk.durable_len();
        // Append an unsynced record directly (commit() would sync it).
        wal_disk.append(b"half-written frame bytes").unwrap();
        assert!(wal_disk.volatile_len() > 0, "{mode:?}");
        wal_disk.crash_torn(mode);
        drop(store);
        if mode == TornWriteMode::HeaderOnly {
            assert!(wal_disk.durable_len() <= synced_len + 6);
        }

        // Incarnation 2: recover, then commit fresh work.
        let (store, report) = open();
        assert_eq!(store.get(None, b"k").unwrap().unwrap(), b"durable");
        assert_eq!(report.committed_txns, 1, "{mode:?}");
        store.begin(2).unwrap();
        store.put(2, b"k2", b"after-tear").unwrap();
        store.commit(2).unwrap();
        drop(store);
        wal_disk.crash(rrq_storage::disk::CrashStyle::DropVolatile);

        // Incarnation 3: both commits must be visible.
        let (store, report) = open();
        assert_eq!(report.committed_txns, 2, "{mode:?}: new commit lost");
        assert_eq!(store.get(None, b"k").unwrap().unwrap(), b"durable");
        assert_eq!(store.get(None, b"k2").unwrap().unwrap(), b"after-tear");
    }
}

#[test]
fn every_mode_keeps_the_log_appendable_after_recovery() {
    // A restarted store appends fresh records after the torn tail was
    // discarded; they must scan back cleanly from the recovered prefix.
    for mode in TornWriteMode::ALL {
        let (_disk, wal) = torn_log(mode);
        let (_, valid_end) = wal.scan(0).unwrap();
        // Recovery truncates to the valid prefix before writing again
        // (modelled here by reset to the valid bytes, as KvStore::open does
        // with its checkpoint swap).
        let valid = wal.disk().read(0, valid_end as usize).unwrap();
        wal.disk().reset(valid).unwrap();
        wal.append(3, RecordKind::Commit, &put_payload(b"k2", b"post"))
            .unwrap();
        wal.sync().unwrap();
        let out = replay(&wal, Default::default(), |_| {}).unwrap();
        assert_eq!(out.committed_txns, 2, "{mode:?}");
        assert_eq!(out.replayed, 2, "{mode:?}");
    }
}

#[test]
fn a_torn_server_shaped_commit_applies_none_of_its_ops() {
    // The shape of a server's request transaction (Fig 5): dequeue the
    // request (its element and index row), debit and credit two accounts,
    // enqueue the reply (element and index row), and tag the registration —
    // seven ops, one commit record, the last in the log and not yet forced.
    let open = |wal: &SimDisk, ckpt: &SimDisk| {
        KvStore::open(
            Arc::new(wal.clone()),
            Arc::new(ckpt.clone()),
            rrq_obs::Obs::default(),
        )
        .unwrap()
    };
    let dump = |store: &KvStore| -> BTreeMap<Vec<u8>, Vec<u8>> {
        store.scan_prefix(None, b"").unwrap().into_iter().collect()
    };
    for mode in TornWriteMode::ALL {
        let (wal, ckpt) = (SimDisk::new(), SimDisk::new());
        let (store, _) = open(&wal, &ckpt);
        store.begin(1).unwrap();
        store.put(1, b"e/req/1", &[0x51; 200]).unwrap();
        store.put(1, b"x/1", b"req").unwrap();
        store.put(1, b"acct/a", b"100").unwrap();
        store.put(1, b"acct/b", b"0").unwrap();
        store.commit(1).unwrap();
        let durable = dump(&store);

        store.begin(2).unwrap();
        store.delete(2, b"e/req/1").unwrap();
        store.delete(2, b"x/1").unwrap();
        store.put(2, b"acct/a", b"90").unwrap();
        store.put(2, b"acct/b", b"10").unwrap();
        store.put(2, b"e/reply/1", &[0x52; 200]).unwrap();
        store.put(2, b"x/2", b"reply").unwrap();
        store.put(2, b"r/server", b"tag").unwrap();
        store.commit_deferred(2).unwrap();
        let (records, _) = Wal::new(Arc::new(wal.clone())).scan(0).unwrap();
        let last = records.last().unwrap();
        assert_eq!(last.kind, RecordKind::Commit);
        let ops = WriteOp::decode_list(&mut Reader::new(&last.payload)).unwrap();
        assert_eq!(ops.len(), 7, "one record carries the whole write set");
        assert!(wal.volatile_len() > 0, "{mode:?}: the record is not forced");

        drop(store);
        wal.crash_torn(mode);
        let (store, report) = open(&wal, &ckpt);
        assert_eq!(report.committed_txns, 1, "{mode:?}");
        assert_eq!(dump(&store), durable, "{mode:?}: none of the seven ops");
    }
}
