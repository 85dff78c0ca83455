//! A commit that fails on a device error must leave the transaction exactly
//! as it was — open, write set intact — so the same token can commit once the
//! device is back.
//!
//! Commit and prepare check the transaction's state out of the store and move
//! the write set into the tree on success; these tests pin that every failure
//! exit (a sibling log's append, the home log's append, the force) checks the
//! state back in. `partitioned_wal.rs` covers the other half: that a failed
//! commit leaves nothing *behind* in the tree or the logs' committed state.

use rrq_storage::disk::{CrashStyle, Disk, DiskStats, SimDisk};
use rrq_storage::kv::{partition_for_key, KvOptions, KvStore};
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

fn open(wals: &[SimDisk], ckpt: &SimDisk) -> Arc<KvStore> {
    let disks = wals
        .iter()
        .map(|d| Arc::new(d.clone()) as Arc<dyn Disk>)
        .collect();
    KvStore::open_partitioned(disks, Arc::new(ckpt.clone()), KvOptions::default())
        .unwrap()
        .0
}

/// The logs a transaction writing every key of `0..KEYS` touches, lowest
/// (its home log) first.
fn touched(n: usize) -> Vec<usize> {
    let mut t: Vec<usize> = (0..KEYS).map(|i| partition_for_key(&key(i), n)).collect();
    t.sort_unstable();
    t.dedup();
    t
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

/// Fail log `victim` during the commit, repair it, commit the same token.
fn commit_survives_failure_of(n: usize, victim: usize) {
    let wals: Vec<SimDisk> = (0..n).map(|_| SimDisk::new()).collect();
    let ckpt = SimDisk::new();
    let store = open(&wals, &ckpt);
    write_all(&store, 1);

    wals[victim].fail();
    assert_eq!(store.commit(1), Err(StorageError::DeviceFailed));
    assert_own_view_intact(&store, 1);
    // The write set is still writable, too.
    store.put(1, b"k/extra", b"late").unwrap();

    wals[victim].repair();
    store.commit(1).unwrap();
    assert!(!store.is_open(1));
    assert_committed(&store);
    assert_eq!(store.get(None, b"k/extra").unwrap(), Some(b"late".to_vec()));

    // The retire line kept moving across the failed attempt.
    store.begin(2).unwrap();
    store.put(2, b"after", b"ok").unwrap();
    store.commit(2).unwrap();

    for d in &wals {
        d.crash(CrashStyle::DropVolatile);
    }
    let store = open(&wals, &ckpt);
    assert_committed(&store);
    assert_eq!(store.get(None, b"k/extra").unwrap(), Some(b"late".to_vec()));
    assert_eq!(store.get(None, b"after").unwrap(), Some(b"ok".to_vec()));
}

#[test]
fn single_log_commit_retries_after_device_failure() {
    commit_survives_failure_of(1, 0);
}

#[test]
fn a_failed_commit_append_leaves_nothing_of_the_transaction_in_the_log() {
    // A commit hands the device its data records and its commit record as
    // one write, so a device that refuses it holds no part of the
    // transaction: no orphan data records for a later scan to carry.
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let store = open(std::slice::from_ref(&wal), &ckpt);
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
fn four_logs_commit_retries_after_home_device_failure() {
    let home = touched(4)[0];
    commit_survives_failure_of(4, home);
}

#[test]
fn four_logs_commit_retries_after_sibling_device_failure() {
    let t = touched(4);
    assert!(t.len() > 1, "16 keys must span several logs");
    for &sibling in &t[1..] {
        commit_survives_failure_of(4, sibling);
    }
}

#[test]
fn commit_retries_after_a_failed_force() {
    // The commit record lands in the volatile log, then the force fails: the
    // retry logs the write set and a second commit record behind it, and
    // recovery must still see one committed transaction with the right state.
    for n in [1, 4] {
        let sims: Vec<SimDisk> = (0..n).map(|_| SimDisk::new()).collect();
        let flaky: Vec<Arc<ForceFails>> = sims
            .iter()
            .map(|d| {
                Arc::new(ForceFails {
                    disk: d.clone(),
                    failing: AtomicBool::new(false),
                })
            })
            .collect();
        let ckpt = SimDisk::new();
        let disks = flaky.iter().map(|d| d.clone() as Arc<dyn Disk>).collect();
        let (store, _) =
            KvStore::open_partitioned(disks, Arc::new(ckpt.clone()), KvOptions::default()).unwrap();
        write_all(&store, 1);

        let home = touched(n)[0];
        flaky[home].failing.store(true, Ordering::SeqCst);
        assert_eq!(store.commit(1), Err(StorageError::DeviceFailed));
        assert_own_view_intact(&store, 1);

        flaky[home].failing.store(false, Ordering::SeqCst);
        store.commit(1).unwrap();
        assert_committed(&store);

        for d in &sims {
            d.crash(CrashStyle::DropVolatile);
        }
        let (store, report) = {
            let disks = sims
                .iter()
                .map(|d| Arc::new(d.clone()) as Arc<dyn Disk>)
                .collect();
            KvStore::open_partitioned(disks, Arc::new(ckpt.clone()), KvOptions::default()).unwrap()
        };
        assert_eq!(report.committed_txns, 1);
        assert_committed(&store);
    }
}

#[test]
fn prepare_retries_after_device_failure() {
    for n in [1, 4] {
        for &victim in &touched(n) {
            let wals: Vec<SimDisk> = (0..n).map(|_| SimDisk::new()).collect();
            let ckpt = SimDisk::new();
            let store = open(&wals, &ckpt);
            write_all(&store, 7);

            wals[victim].fail();
            assert_eq!(store.prepare(7), Err(StorageError::DeviceFailed));
            assert_own_view_intact(&store, 7);
            // Not prepared: the write set is still open for writes.
            store.put(7, b"k/extra", b"late").unwrap();

            wals[victim].repair();
            store.prepare(7).unwrap();
            assert!(store.put(7, b"k/no", b"x").is_err(), "prepared now");

            // In doubt across a crash, with the whole write set.
            for d in &wals {
                d.crash(CrashStyle::DropVolatile);
            }
            let store = open(&wals, &ckpt);
            assert!(store.is_open(7));
            store.commit(7).unwrap();
            assert_committed(&store);
            assert_eq!(store.get(None, b"k/extra").unwrap(), Some(b"late".to_vec()));
        }
    }
}
