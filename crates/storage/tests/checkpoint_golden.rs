//! The checkpoint device's bytes are pinned, stage by stage, over one
//! scripted history that takes every road a key can take between two
//! checkpoints: put, overwrite, delete, delete of an absent key, delete then
//! recreate, put then delete in one transaction; and every road a checkpoint
//! can take: a first one, one that fails before its segment is durable, one
//! over an earlier checkpoint, one whose segment is durable but whose log
//! reset is refused, one over a log replayed, from where the checkpoint stops
//! covering it, after a crash, and one with nothing written since.
//!
//! A checkpoint is the whole tree, so its bytes depend on the committed
//! contents alone: at every stage the device must hold exactly what a fresh
//! store holding the same contents writes. The first checkpoint is pinned
//! outright by a `(length, crc32)` pair recorded at commit `a3f77e2`, so the
//! base format itself cannot move either.

use rrq_storage::checksum::crc32;
use rrq_storage::disk::{CrashStyle, Disk, SimDisk};
use rrq_storage::kv::KvStore;
use std::collections::BTreeMap;
use std::sync::Arc;

fn open(wal: &SimDisk, ckpt: &SimDisk) -> Arc<KvStore> {
    let (store, _) = KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(ckpt.clone()),
        rrq_obs::Obs::default(),
    )
    .unwrap();
    store
}

/// One committed transaction: `Some(value)` puts, `None` deletes.
fn commit(store: &KvStore, token: u64, writes: &[(&[u8], Option<&[u8]>)]) {
    store.begin(token).unwrap();
    for (key, value) in writes {
        match value {
            Some(v) => store.put(token, key, v).unwrap(),
            None => store.delete(token, key).unwrap(),
        }
    }
    store.commit(token).unwrap();
}

fn fingerprint(ckpt: &SimDisk) -> (u64, u32) {
    let bytes = ckpt.read(0, ckpt.len() as usize).unwrap();
    (ckpt.len(), crc32(&bytes))
}

fn dump(store: &KvStore) -> BTreeMap<Vec<u8>, Vec<u8>> {
    store.scan_prefix(None, b"").unwrap().into_iter().collect()
}

/// The checkpoint a fresh store writes once one transaction has put
/// `contents` into it.
fn fresh_checkpoint(contents: &BTreeMap<Vec<u8>, Vec<u8>>) -> (u64, u32) {
    let ckpt = SimDisk::new();
    let store = open(&SimDisk::new(), &ckpt);
    store.begin(1).unwrap();
    for (key, value) in contents {
        store.put(1, key, value).unwrap();
    }
    store.commit(1).unwrap();
    store.checkpoint().unwrap();
    fingerprint(&ckpt)
}

#[test]
fn checkpoint_device_bytes_match_the_dirty_set_implementation() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let store = open(&wal, &ckpt);

    commit(
        &store,
        1,
        &[
            (b"a", Some(b"1")),
            (b"b", Some(b"2")),
            (b"c", Some(b"3")),
            (b"d", Some(b"4")),
        ],
    );
    store.checkpoint().unwrap();
    let base = fingerprint(&ckpt);
    assert_eq!(base, GOLDEN, "the base format moved");
    assert_eq!(base, fresh_checkpoint(&dump(&store)));

    // Overwrite, delete, delete of an absent key, a new key.
    commit(
        &store,
        2,
        &[
            (b"a", Some(b"one")),
            (b"b", None),
            (b"zz", None),
            (b"e", Some(b"5")),
        ],
    );
    // Delete, then recreate in a later transaction.
    commit(&store, 3, &[(b"c", None)]);
    commit(&store, 4, &[(b"c", Some(b"three"))]);
    // Put and delete inside one transaction: a key no checkpoint ever held.
    commit(&store, 5, &[(b"f", Some(b"6")), (b"f", None)]);

    // The checkpoint device refuses the segment: nothing is durable.
    ckpt.fail();
    assert!(store.checkpoint().is_err());
    ckpt.repair();
    assert_eq!(fingerprint(&ckpt), base, "a failed segment left bytes");

    commit(&store, 6, &[(b"g", Some(b"7"))]);
    store.checkpoint().unwrap();
    assert_eq!(
        fingerprint(&ckpt),
        fresh_checkpoint(&dump(&store)),
        "a checkpoint over a checkpoint"
    );

    // The segment becomes durable, then the log device refuses the reset:
    // the call fails, the checkpoint has moved on, the log is whole.
    commit(&store, 7, &[(b"h", Some(b"8")), (b"a", None)]);
    wal.fail_resets();
    assert!(store.checkpoint().is_err());
    wal.repair();
    assert_eq!(
        fingerprint(&ckpt),
        fresh_checkpoint(&dump(&store)),
        "a checkpoint whose log reset was refused"
    );

    commit(&store, 8, &[(b"i", Some(b"9"))]);
    let expected = dump(&store);
    wal.crash(CrashStyle::DropVolatile);
    ckpt.crash(CrashStyle::DropVolatile);
    drop(store);

    // The checkpoint already covers transactions 6 and 7 and the log says
    // so: only 8 replays.
    let store = open(&wal, &ckpt);
    assert_eq!(dump(&store), expected);
    store.checkpoint().unwrap();
    let after_replay = fingerprint(&ckpt);
    assert_eq!(
        after_replay,
        fresh_checkpoint(&expected),
        "a checkpoint over a replayed log"
    );

    // Nothing written since: the same bytes again.
    store.checkpoint().unwrap();
    assert_eq!(fingerprint(&ckpt), after_replay, "an idle checkpoint moved");

    let from_checkpoint = dump(&open(&SimDisk::new(), &ckpt));
    assert_eq!(
        from_checkpoint, expected,
        "the checkpoint alone rebuilds the tree"
    );
}

/// `(device length, crc32 of its bytes)` after the first checkpoint,
/// recorded at commit `a3f77e2`.
const GOLDEN: (u64, u32) = (65, 558_161_692);
