//! Regression tests: every [`TornWriteMode`] leaves a tail that the WAL's
//! frame validation rejects on recovery, so a committed-but-unsynced
//! transaction cleanly vanishes instead of corrupting the store.
//!
//! Each test writes one durable (synced) transaction, one volatile
//! (unsynced) transaction, tears the volatile tail with one mode, and then
//! runs the real recovery path: `Wal::scan` must stop at the tear and
//! `recovery::replay` must redo only the durable transaction.

use rrq_storage::disk::{Disk, SimDisk, TornWriteMode};
use rrq_storage::kv::{KvStore, WriteOp};
use rrq_storage::recovery::replay;
use rrq_storage::wal::{RecordKind, Wal};
use std::sync::Arc;

fn put_payload(key: &[u8], value: &[u8]) -> Vec<u8> {
    WriteOp::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    }
    .encode_payload()
}

/// Durable txn 1, volatile txn 2, then a torn crash with `mode`.
fn torn_log(mode: TornWriteMode) -> (SimDisk, Wal) {
    let disk = SimDisk::new();
    let wal = Wal::new(Arc::new(disk.clone()));
    wal.append(1, RecordKind::KvPut, &put_payload(b"k", b"durable"))
        .unwrap();
    wal.append(1, RecordKind::Commit, &[]).unwrap();
    wal.sync().unwrap();
    wal.append(2, RecordKind::KvPut, &put_payload(b"k", b"torn"))
        .unwrap();
    wal.append(2, RecordKind::Commit, &[]).unwrap();
    assert!(disk.volatile_len() > 0, "txn 2 must be unsynced");
    disk.crash_torn(mode);
    (disk, wal)
}

/// The shared oracle: recovery redoes exactly the durable transaction.
fn assert_only_durable_survives(wal: &Wal, mode: TornWriteMode) {
    let out = replay(wal, Default::default()).unwrap();
    assert_eq!(out.committed_txns, 1, "{mode:?}");
    assert_eq!(out.redo.len(), 1, "{mode:?}");
    match &out.redo[0] {
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
    assert_eq!(records.len(), 2, "only txn 1's two records are valid");
    assert!(records.iter().all(|r| r.txn == 1));
    assert_only_durable_survives(&wal, TornWriteMode::Midway);
}

#[test]
fn full_length_corrupt_tear_is_caught_by_crc() {
    let (disk, wal) = torn_log(TornWriteMode::FullLengthCorrupt);
    let len_before = wal.len();
    // Every byte survived, with the very last one corrupted — so txn 2's
    // *interior* KvPut frame is intact and passes the scan, and only the CRC
    // over the final (commit) frame's body can reject that record.
    assert_eq!(disk.durable_len(), len_before);
    let (records, _) = wal.scan(0).unwrap();
    assert_eq!(records.len(), 3, "txn 2's put frame survives the scan");
    assert_eq!(records[2].txn, 2);
    // Without a durable commit, replay must still discard txn 2.
    assert_only_durable_survives(&wal, TornWriteMode::FullLengthCorrupt);
}

#[test]
fn header_only_tear_is_rejected_as_truncated() {
    let (_disk, wal) = torn_log(TornWriteMode::HeaderOnly);
    let (records, valid_end) = wal.scan(0).unwrap();
    // At most 6 bytes of the torn frame survive — less than a frame header,
    // so the scan treats the tail as truncated.
    assert!(wal.len() - valid_end <= 6);
    assert_eq!(records.len(), 2, "only txn 1's two records are valid");
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
        wal.append(3, RecordKind::KvPut, &put_payload(b"k2", b"post"))
            .unwrap();
        wal.append(3, RecordKind::Commit, &[]).unwrap();
        wal.sync().unwrap();
        let out = replay(&wal, Default::default()).unwrap();
        assert_eq!(out.committed_txns, 2, "{mode:?}");
        assert_eq!(out.redo.len(), 2, "{mode:?}");
    }
}
