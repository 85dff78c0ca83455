//! A log that fails stops. A commit point whose append or force fails puts
//! the transaction back, write set intact, for its caller's abort, and fails
//! the store's log: no later commit, prepare or force on that store succeeds
//! — not the same token's, not another's, not after the device is repaired —
//! until the store reopens. What the failed commit left on the device is
//! decided by that reopen: nothing after a crash dropped it, a committed
//! transaction after a restart kept it.

use rrq_storage::disk::{CrashStyle, Disk, SimDisk};
use rrq_storage::kv::KvStore;
use rrq_storage::StorageError;
use std::sync::Arc;

const KEYS: u32 = 16;

fn key(i: u32) -> Vec<u8> {
    format!("k/{i}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

fn open(wal: &SimDisk, ckpt: &SimDisk) -> Arc<KvStore> {
    KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(ckpt.clone()),
        rrq_obs::Obs::default(),
    )
    .unwrap()
    .0
}

fn write_all(store: &KvStore, txn: u64) {
    store.begin(txn).unwrap();
    for i in 0..KEYS {
        store.put(txn, key(i), value(i)).unwrap();
    }
    // An overwrite and a delete, so the write set is more than one op per key.
    store.put(txn, key(0), b"overwritten").unwrap();
    store.delete(txn, key(1)).unwrap();
}

fn expected(i: u32) -> Option<Vec<u8>> {
    match i {
        0 => Some(b"overwritten".to_vec()),
        1 => None,
        i => Some(value(i)),
    }
}

fn assert_own_view_intact(store: &KvStore, txn: u64) {
    assert!(store.is_open(txn), "a failed commit leaves the txn open");
    for i in 0..KEYS {
        assert_eq!(store.get(Some(txn), &key(i)).unwrap(), expected(i));
        assert_eq!(store.get(None, &key(i)).unwrap(), None, "nothing applied");
    }
}

fn assert_committed(store: &KvStore) {
    for i in 0..KEYS {
        assert_eq!(store.get(None, &key(i)).unwrap(), expected(i), "key {i}");
    }
}

/// Fail the log during the commit: after the repair the same token, and any
/// other, is refused until the reopen.
#[test]
fn a_failed_commit_fails_the_log_until_the_reopen() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let store = open(&wal, &ckpt);
    write_all(&store, 1);
    store.begin(2).unwrap();
    store.put(2, b"other", b"x").unwrap();

    wal.fail();
    assert_eq!(store.commit(1), Err(StorageError::DeviceFailed));
    assert_own_view_intact(&store, 1);
    assert!(store.log_failed());

    wal.repair();
    assert_eq!(store.commit(1), Err(StorageError::LogFailed));
    assert_eq!(store.commit(2), Err(StorageError::LogFailed));
    // A one-phase transaction's abort logs nothing, so it still succeeds.
    store.abort(1).unwrap();
    store.abort(2).unwrap();

    // The reopen builds a new log: the store commits again, and the failed
    // commit, of which the device got nothing, is gone.
    let store = open(&wal, &ckpt);
    assert!(!store.log_failed());
    assert_eq!(store.get(None, &key(2)).unwrap(), None);
    write_all(&store, 3);
    store.commit(3).unwrap();
    wal.crash(CrashStyle::DropVolatile);
    assert_committed(&open(&wal, &ckpt));
}

#[test]
fn a_failed_commit_append_leaves_nothing_of_the_transaction_in_the_log() {
    // A commit hands the device its data records and its commit record as
    // one write, so a device that refuses it holds no part of the
    // transaction: no orphan data records for a later scan to carry.
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let store = open(&wal, &ckpt);
    store.begin(9).unwrap();
    store.put(9, b"before", b"ok").unwrap();
    store.commit(9).unwrap();
    let (len, appends) = (wal.len(), wal.stats().appends);

    write_all(&store, 1);
    wal.fail();
    assert_eq!(store.commit(1), Err(StorageError::DeviceFailed));
    wal.repair();
    assert_eq!(wal.len(), len, "not one byte of the failed commit landed");
    assert_eq!(wal.stats().appends, appends);
    assert_own_view_intact(&store, 1);

    assert_eq!(store.commit(1), Err(StorageError::LogFailed));
    assert_eq!(wal.stats().appends, appends, "no write for a retry");
    let store = open(&wal, &ckpt);
    assert_eq!(store.get(None, b"before").unwrap(), Some(b"ok".to_vec()));
    assert_eq!(store.get(None, &key(2)).unwrap(), None);
}

#[test]
fn a_commit_whose_force_failed_is_decided_by_the_reopen() {
    // The commit record lands in the volatile log, then the force fails and
    // the caller undoes the transaction in memory. The next committer's
    // force must not make that record durable: it is refused. The reopen
    // decides the failed commit: a process restart keeps its record
    // (committed), a crash drops it. What the reopen showed, it forced
    // first: a crash right after it takes nothing back.
    for crash in [false, true] {
        let wal = SimDisk::new();
        let ckpt = SimDisk::new();
        let store = open(&wal, &ckpt);
        store.begin(1).unwrap();
        store.put(1, b"a", b"failed").unwrap();
        wal.fail_syncs();
        assert_eq!(store.commit(1), Err(StorageError::DeviceFailed));
        store.abort(1).unwrap();
        wal.repair();
        store.begin(2).unwrap();
        store.put(2, b"b", b"later").unwrap();
        assert_eq!(store.commit(2), Err(StorageError::LogFailed));
        assert_eq!(wal.durable_len(), 0, "nothing forced the failed record");

        if crash {
            wal.crash(CrashStyle::DropVolatile);
        }
        let (store, report) = KvStore::open(
            Arc::new(wal.clone()),
            Arc::new(ckpt.clone()),
            rrq_obs::Obs::default(),
        )
        .unwrap();
        assert_eq!(report.committed_txns, usize::from(!crash));
        let a = (!crash).then(|| b"failed".to_vec());
        assert_eq!(store.get(None, b"a").unwrap(), a, "crash: {crash}");
        assert_eq!(store.get(None, b"b").unwrap(), None);

        wal.crash(CrashStyle::DropVolatile);
        let store = open(&wal, &ckpt);
        assert_eq!(store.get(None, b"a").unwrap(), a, "crash: {crash}");
    }
}

#[test]
fn a_failed_prepare_fails_the_log_until_the_reopen() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let store = open(&wal, &ckpt);
    write_all(&store, 7);

    wal.fail();
    assert_eq!(store.prepare(7), Err(StorageError::DeviceFailed));
    assert_own_view_intact(&store, 7);
    // Not prepared: the write set is still open for writes, but the log
    // refuses to prepare or commit it.
    store.put(7, b"k/extra", b"late").unwrap();
    wal.repair();
    assert_eq!(store.prepare(7), Err(StorageError::LogFailed));
    assert_eq!(store.commit(7), Err(StorageError::LogFailed));

    // Nothing of it reached the device: not in doubt after the reopen.
    wal.crash(CrashStyle::DropVolatile);
    let (store, report) = KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(ckpt.clone()),
        rrq_obs::Obs::default(),
    )
    .unwrap();
    assert!(report.in_doubt.is_empty());
    assert!(!store.is_open(7));
    write_all(&store, 7);
    store.prepare(7).unwrap();
    store.commit(7).unwrap();
    assert_committed(&store);
}
