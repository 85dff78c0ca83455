//! A commit that fails on a device error must leave the transaction exactly
//! as it was — open, write set intact — so the same token can commit once the
//! device is back.
//!
//! Commit and prepare check the transaction's state out of the store and move
//! the write set into the tree on success; these tests pin that every failure
//! exit (the append, the force) checks the state back in, and that a failed
//! commit leaves nothing *behind* in the tree or the log's committed state.

use rrq_storage::disk::{CrashStyle, Disk, DiskStats, SimDisk};
use rrq_storage::kv::KvStore;
use rrq_storage::{StorageError, StorageResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A `SimDisk` whose forces can be made to fail while appends still land:
/// `SimDisk::fail` fails both, and the append always comes first.
struct ForceFails {
    disk: SimDisk,
    failing: AtomicBool,
}

impl Disk for ForceFails {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        self.disk.append(data)
    }
    fn read(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        self.disk.read(offset, len)
    }
    fn len(&self) -> u64 {
        self.disk.len()
    }
    fn sync(&self) -> StorageResult<()> {
        if self.failing.load(Ordering::SeqCst) {
            return Err(StorageError::DeviceFailed);
        }
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

const KEYS: u32 = 16;

fn key(i: u32) -> Vec<u8> {
    format!("k/{i}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

fn open(wal: &SimDisk, ckpt: &SimDisk) -> Arc<KvStore> {
    KvStore::open(Arc::new(wal.clone()), Arc::new(ckpt.clone()))
        .unwrap()
        .0
}

fn write_all(store: &KvStore, txn: u64) {
    store.begin(txn).unwrap();
    for i in 0..KEYS {
        store.put(txn, &key(i), &value(i)).unwrap();
    }
    // An overwrite and a delete, so the write set is more than one op per key.
    store.put(txn, &key(0), b"overwritten").unwrap();
    store.delete(txn, &key(1)).unwrap();
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

/// Fail the log during the commit, repair it, commit the same token.
#[test]
fn commit_retries_after_device_failure() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let store = open(&wal, &ckpt);
    write_all(&store, 1);

    wal.fail();
    assert_eq!(store.commit(1), Err(StorageError::DeviceFailed));
    assert_own_view_intact(&store, 1);
    // The write set is still writable, too.
    store.put(1, b"k/extra", b"late").unwrap();

    wal.repair();
    store.commit(1).unwrap();
    assert!(!store.is_open(1));
    assert_committed(&store);
    assert_eq!(store.get(None, b"k/extra").unwrap(), Some(b"late".to_vec()));

    // The retire line kept moving across the failed attempt.
    store.begin(2).unwrap();
    store.put(2, b"after", b"ok").unwrap();
    store.commit(2).unwrap();

    wal.crash(CrashStyle::DropVolatile);
    let store = open(&wal, &ckpt);
    assert_committed(&store);
    assert_eq!(store.get(None, b"k/extra").unwrap(), Some(b"late".to_vec()));
    assert_eq!(store.get(None, b"after").unwrap(), Some(b"ok".to_vec()));
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

    store.commit(1).unwrap();
    assert_eq!(wal.stats().appends, appends + 1, "one write for the retry");
    assert_committed(&store);
}

#[test]
fn commit_retries_after_a_failed_force() {
    // The commit record lands in the volatile log, then the force fails: the
    // retry logs the write set and a second commit record behind it, and
    // recovery must still see one committed transaction with the right state.
    let wal = SimDisk::new();
    let flaky = Arc::new(ForceFails {
        disk: wal.clone(),
        failing: AtomicBool::new(false),
    });
    let ckpt = SimDisk::new();
    let (store, _) = KvStore::open(flaky.clone(), Arc::new(ckpt.clone())).unwrap();
    write_all(&store, 1);

    flaky.failing.store(true, Ordering::SeqCst);
    assert_eq!(store.commit(1), Err(StorageError::DeviceFailed));
    assert_own_view_intact(&store, 1);

    flaky.failing.store(false, Ordering::SeqCst);
    store.commit(1).unwrap();
    assert_committed(&store);

    wal.crash(CrashStyle::DropVolatile);
    let (store, report) = KvStore::open(Arc::new(wal.clone()), Arc::new(ckpt.clone())).unwrap();
    assert_eq!(report.committed_txns, 1);
    assert_committed(&store);
}

#[test]
fn prepare_retries_after_device_failure() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let store = open(&wal, &ckpt);
    write_all(&store, 7);

    wal.fail();
    assert_eq!(store.prepare(7), Err(StorageError::DeviceFailed));
    assert_own_view_intact(&store, 7);
    // Not prepared: the write set is still open for writes.
    store.put(7, b"k/extra", b"late").unwrap();

    wal.repair();
    store.prepare(7).unwrap();
    assert!(store.put(7, b"k/no", b"x").is_err(), "prepared now");

    // In doubt across a crash, with the whole write set.
    wal.crash(CrashStyle::DropVolatile);
    let store = open(&wal, &ckpt);
    assert!(store.is_open(7));
    store.commit(7).unwrap();
    assert_committed(&store);
    assert_eq!(store.get(None, b"k/extra").unwrap(), Some(b"late".to_vec()));
}
