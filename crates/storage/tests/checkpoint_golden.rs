//! The checkpoint device's bytes are pinned, stage by stage, over one
//! scripted history that takes every road a key can take between two
//! checkpoints: put, overwrite, delete, delete of an absent key, delete then
//! recreate, put then delete in one transaction; and every road a checkpoint
//! can take: a base, a delta, one that fails before its segment is durable,
//! one whose segment is durable but whose log reset is refused, and one over
//! a log replayed, from where the chain stops covering it, after a crash.
//!
//! The golden `(length, crc32)` pairs were recorded from the store that kept
//! a hash set of every key written since the last checkpoint. The store now
//! finds a delta by generation stamp (entries written since the last
//! checkpoint carry the current generation; deleted keys are remembered by
//! moving them into a list), and must lay down the same segments: stamping
//! an entry with the wrong generation, or forgetting the deleted list, moves
//! a pair below. (The last pair is the exception: the store that recorded it
//! replayed the whole log over a chain that covered most of it, so its next
//! delta carried transactions 6 and 7 a second time. Recovery now starts at
//! the log's `Checkpoint` record naming the chain, and that delta is the 36
//! bytes of transaction 8's one key.)

use rrq_storage::checksum::crc32;
use rrq_storage::disk::{CrashStyle, Disk, SimDisk};
use rrq_storage::kv::KvStore;
use rrq_storage::load_chain;
use std::collections::BTreeMap;
use std::sync::Arc;

fn open(wal: &SimDisk, ckpt: &SimDisk) -> Arc<KvStore> {
    let (store, _) = KvStore::open(Arc::new(wal.clone()), Arc::new(ckpt.clone())).unwrap();
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
    // Put and delete inside one transaction: a tombstone for a key no
    // segment ever held.
    commit(&store, 5, &[(b"f", Some(b"6")), (b"f", None)]);

    // The checkpoint device refuses the segment: nothing is durable, and
    // everything written since the base is still owed to the next delta.
    ckpt.fail();
    assert!(store.checkpoint().is_err());
    ckpt.repair();
    assert_eq!(fingerprint(&ckpt), base, "a failed segment left bytes");

    commit(&store, 6, &[(b"g", Some(b"7"))]);
    store.checkpoint().unwrap();
    let first_delta = fingerprint(&ckpt);

    // The segment becomes durable, then the log device refuses the reset:
    // the call fails, the chain has grown, the log is whole.
    commit(&store, 7, &[(b"h", Some(b"8")), (b"a", None)]);
    wal.fail_resets();
    assert!(store.checkpoint().is_err());
    wal.repair();
    let reset_refused = fingerprint(&ckpt);

    commit(&store, 8, &[(b"i", Some(b"9"))]);
    let expected = dump(&store);
    wal.crash(CrashStyle::DropVolatile);
    ckpt.crash(CrashStyle::DropVolatile);
    drop(store);

    // The chain already covers transactions 6 and 7 and the log says so:
    // only 8 replays, and the next delta carries it alone.
    let store = open(&wal, &ckpt);
    assert_eq!(dump(&store), expected);
    store.checkpoint().unwrap();
    let after_replay = fingerprint(&ckpt);

    // Nothing written since: the chain already describes the tree.
    store.checkpoint().unwrap();
    assert_eq!(
        fingerprint(&ckpt),
        after_replay,
        "an empty delta was written"
    );

    assert_eq!(
        [base, first_delta, reset_refused, after_replay],
        GOLDEN,
        "checkpoint segments differ from the dirty-set implementation's"
    );
    let chain = load_chain(&ckpt).unwrap();
    assert_eq!(chain.segments, 4);
    let from_chain: BTreeMap<Vec<u8>, Vec<u8>> = open(&SimDisk::new(), &ckpt)
        .scan_prefix(None, b"")
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(from_chain, expected, "the chain alone rebuilds the tree");
}

/// `(device length, crc32 of its bytes)` after the base, the first delta,
/// the delta whose log reset was refused — recorded at commit `a3f77e2` (the
/// dirty-set implementation) — and the delta over the replayed log tail.
const GOLDEN: [(u64, u32); 4] = [
    (65, 558_161_692),
    (159, 4_012_524_347),
    (201, 2_131_810_164),
    (237, 3_242_712_740),
];
