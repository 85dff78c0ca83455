//! Regression tests for the checkpoint latch scope: the append latch covers
//! only the log truncate + checkpoint-marker append, and the device force
//! plus the group-commit watermark reset run after it drops (the latch is a
//! no-block lock class, enforced by `rrq-analyze`). Pinned contracts: the
//! checkpoint is durable the moment `checkpoint()` returns, and checkpoints
//! racing a storm of committers neither deadlock nor lose a committed write.

use rrq_storage::disk::{CrashStyle, Disk, SimDisk, TornWriteMode};
use rrq_storage::kv::KvStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

fn open(wal: &SimDisk, ckpt: &SimDisk) -> (Arc<KvStore>, rrq_storage::recovery::RecoveryReport) {
    KvStore::open(Arc::new(wal.clone()), Arc::new(ckpt.clone())).unwrap()
}

fn dump(store: &KvStore) -> BTreeMap<Vec<u8>, Vec<u8>> {
    store.scan_prefix(None, b"").unwrap().into_iter().collect()
}

fn commit(store: &KvStore, token: u64, key: &[u8], value: &[u8]) {
    store.begin(token).unwrap();
    store.put(token, key, value).unwrap();
    store.commit(token).unwrap();
}

/// The sync happens outside the latch now, but still strictly before
/// `checkpoint()` returns: a crash right after the call must recover the
/// whole state from the checkpoint with nothing left to replay.
#[test]
fn checkpoint_durable_when_it_returns() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = open(&wal, &ckpt);
    for i in 0..10u32 {
        let t = 1 + u64::from(i);
        store.begin(t).unwrap();
        store.put(t, format!("k{i}").as_bytes(), b"v").unwrap();
        store.commit(t).unwrap();
    }
    store.checkpoint().unwrap();

    wal.crash(CrashStyle::DropVolatile);
    let (store2, report) = open(&wal, &ckpt);
    assert_eq!(report.replayed, 0, "state came from the checkpoint");
    for i in 0..10u32 {
        assert_eq!(
            store2.get(None, format!("k{i}").as_bytes()).unwrap(),
            Some(b"v".to_vec())
        );
    }
}

/// Commits and checkpoints interleaving freely: every commit that returned
/// `Ok` before the crash must survive, no matter how many truncations ran
/// concurrently — and nothing deadlocks between the checkpoint gate, the
/// append latch, and the group-commit coordinator.
#[test]
fn committers_racing_checkpoints_lose_nothing() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 30;
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = open(&wal, &ckpt);

    let stop = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(AtomicU32::new(0));
    let ckpt_thread = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let ran = Arc::clone(&ran);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                store.checkpoint().unwrap();
                ran.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    // The whole storm takes under a millisecond: hold the
                    // last commit back until the checkpointer has been
                    // scheduled at least once, so the race always happens.
                    while i + 1 == PER_WRITER && ran.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    let t = w * 1000 + i + 1;
                    store.begin(t).unwrap();
                    store.put(t, format!("k/{w}/{i}").as_bytes(), b"v").unwrap();
                    store.commit(t).unwrap();
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    ckpt_thread.join().unwrap();

    wal.crash(CrashStyle::DropVolatile);
    let (store2, _) = open(&wal, &ckpt);
    for w in 0..WRITERS {
        for i in 0..PER_WRITER {
            assert_eq!(
                store2
                    .get(None, format!("k/{w}/{i}").as_bytes())
                    .unwrap()
                    .as_deref(),
                Some(b"v".as_slice()),
                "k/{w}/{i} committed before the crash — must survive"
            );
        }
    }
}

/// Writers that overwrite each other's keys while checkpoints cut in: the
/// retire line applies in commit-record order, so whatever the interleaving,
/// the tree a crash recovers equals the live tree at the crash.
#[test]
fn checkpoints_racing_overlapping_commits_recover_exactly() {
    const WRITERS: u64 = 4;
    const COMMITS: u64 = 40;
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = open(&wal, &ckpt);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..COMMITS {
                    let token = w * COMMITS + i + 1;
                    store.begin(token).unwrap();
                    let own = format!("w{w}-k{}", i % 8);
                    store.put(token, own.as_bytes(), &i.to_le_bytes()).unwrap();
                    if i % 3 == 0 {
                        let shared = format!("shared-{}", i % 4);
                        store
                            .put(token, shared.as_bytes(), &token.to_le_bytes())
                            .unwrap();
                    }
                    store.commit(token).unwrap();
                }
            });
        }
        let store = Arc::clone(&store);
        s.spawn(move || {
            for _ in 0..10 {
                store.checkpoint().unwrap();
                std::thread::yield_now();
            }
        });
    });

    let live = dump(&store);
    assert_eq!(live.len(), (WRITERS * 8 + 4) as usize);
    wal.crash(CrashStyle::DropVolatile);
    ckpt.crash(CrashStyle::DropVolatile);
    let (recovered, _) = open(&wal, &ckpt);
    assert_eq!(dump(&recovered), live, "recovery equals the live tree");
}

/// A crash mid-delta leaves a torn segment past the valid chain. Recovery
/// falls back to the previous chain + log, drops the stale tail, and the next
/// checkpoint appends cleanly where the tail used to be.
#[test]
fn torn_delta_segment_is_dropped_and_chain_resumes() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = open(&wal, &ckpt);
    commit(&store, 1, b"k1", b"v1");
    store.checkpoint().unwrap(); // base segment
    commit(&store, 2, b"k2", b"v2");
    store.checkpoint().unwrap(); // delta segment
    commit(&store, 3, b"k3", b"v3"); // in the log only

    // A crash halfway through forcing the next delta: a segment header with
    // a partial body lands on the platter, then everything stops.
    // (`frame` layout: magic u32 + kind u8 + len u64 + body + crc.)
    let valid_end = ckpt.durable_len();
    let mut partial = Vec::new();
    partial.extend_from_slice(&0xC4EC_B007u32.to_le_bytes());
    partial.push(1); // KIND_DELTA
    partial.extend_from_slice(&1_000u64.to_le_bytes()); // body len it never got
    partial.extend_from_slice(b"partial-body");
    ckpt.append(&partial).unwrap();
    ckpt.crash_torn(TornWriteMode::Midway);
    assert!(
        ckpt.durable_len() > valid_end,
        "window not constructed: stale bytes should sit past the chain"
    );
    wal.crash(CrashStyle::DropVolatile);

    let want = BTreeMap::from([
        (b"k1".to_vec(), b"v1".to_vec()),
        (b"k2".to_vec(), b"v2".to_vec()),
        (b"k3".to_vec(), b"v3".to_vec()),
    ]);
    let (recovered, _) = open(&wal, &ckpt);
    assert_eq!(dump(&recovered), want, "previous chain + log win");
    assert_eq!(
        ckpt.len(),
        valid_end,
        "stale tail dropped so the next delta lands at the chain end"
    );

    // The chain keeps growing from the valid prefix.
    recovered.checkpoint().unwrap();
    assert!(
        recovered.wal_len() < 64,
        "log truncated down to its checkpoint marker"
    );
    wal.crash(CrashStyle::DropVolatile);
    ckpt.crash(CrashStyle::DropVolatile);
    let (again, _) = open(&wal, &ckpt);
    assert_eq!(dump(&again), want);
}

/// A tear reaches only unsynced bytes — here the unforced abort record of a
/// second prepared transaction. The forced prepare records survive it: both
/// transactions come back in-doubt, appends resume at the cut, and resolving
/// them commits the original incarnation's records.
#[test]
fn prepared_txn_with_log_tear_resurfaces_in_doubt_and_commits() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = open(&wal, &ckpt);
    for token in [7, 8] {
        store.begin(token).unwrap();
        store.put(token, &[b'a', token as u8], b"x").unwrap();
        store.put(token, &[b'b', token as u8], b"y").unwrap();
        store.prepare(token).unwrap();
    }
    store.abort(8).unwrap();
    assert!(wal.volatile_len() > 0, "the abort record is not forced");

    wal.crash_torn(TornWriteMode::Midway);
    let torn_len = wal.len();
    let (recovered, report) = open(&wal, &ckpt);
    assert_eq!(report.in_doubt, vec![7, 8]);
    assert!(wal.len() < torn_len, "torn tail cut off at open");
    assert_eq!(dump(&recovered), BTreeMap::new(), "in-doubt is not visible");

    recovered.abort(8).unwrap();
    recovered.commit(7).unwrap();
    let want = BTreeMap::from([
        (vec![b'a', 7], b"x".to_vec()),
        (vec![b'b', 7], b"y".to_vec()),
    ]);
    assert_eq!(dump(&recovered), want);

    // The post-recovery outcome records are durable: a second clean crash
    // keeps one committed and the other gone.
    wal.crash(CrashStyle::DropVolatile);
    let (again, report) = open(&wal, &ckpt);
    assert_eq!(report.in_doubt, Vec::<u64>::new());
    assert_eq!(dump(&again), want);
}

/// `checkpoint()` fails after its segment is durable and before the log is
/// reset (the log device refuses the swap), then the node crashes: recovery
/// finds the *whole* log beside a chain that already covers it. The log's
/// `Checkpoint` record names that chain, so replay starts behind it — for a
/// base segment and for a delta. Replaying the covered part again would not
/// be harmless: a rename reads the tree, and over the newer chain it finds
/// `ghost` where the live store found nothing to move.
#[test]
fn whole_log_beside_a_chain_that_covers_it_replays_exactly() {
    for delta in [false, true] {
        let wal = SimDisk::new();
        let ckpt = SimDisk::new();
        let (store, _) = open(&wal, &ckpt);
        commit(&store, 1, b"old", b"kept");
        if delta {
            store.checkpoint().unwrap(); // the failing one appends a delta
        }
        // Later commits overwrite and delete what earlier ones wrote, so a
        // replay that stops short, or runs out of order, regresses a key.
        commit(&store, 2, b"a", b"1");
        commit(&store, 3, b"b", b"1");
        store.begin(4).unwrap();
        store.put(4, b"a", b"2").unwrap();
        store.put(4, b"c", b"2").unwrap();
        store.prepare(4).unwrap();
        store.commit(4).unwrap();
        store.begin(5).unwrap();
        store.delete(5, b"b").unwrap();
        store.put(5, b"a", b"3").unwrap();
        store.rename(5, b"ghost", b"moved").unwrap(); // nothing there yet
        store.commit(5).unwrap();
        commit(&store, 6, b"ghost", b"late");

        let (log_len, chain_len) = (wal.len(), ckpt.durable_len());
        wal.fail_resets();
        assert!(store.checkpoint().is_err(), "the log reset must fail");
        wal.repair();
        assert!(
            ckpt.durable_len() > chain_len,
            "segment durable (delta: {delta})"
        );
        // One record more: the one that names the chain (frame header 10,
        // txn and kind 9, chain end and crc 12).
        assert_eq!(wal.len(), log_len + 31, "delta: {delta}");
        // The store carries on over the log it could not truncate.
        commit(&store, 7, b"b", b"back");
        let want = dump(&store);
        assert_eq!(want.get(b"a".as_slice()), Some(&b"3".to_vec()));
        assert_eq!(want.get(b"moved".as_slice()), None);
        drop(store);
        wal.crash(CrashStyle::DropVolatile);
        ckpt.crash(CrashStyle::DropVolatile);

        let (recovered, report) = open(&wal, &ckpt);
        assert_eq!(
            report.replayed, 1,
            "transaction 7, and nothing the chain has"
        );
        assert_eq!(report.in_doubt, Vec::<u64>::new(), "txn 4 is resolved");
        assert_eq!(dump(&recovered), want, "delta: {delta}");

        // The chain and the log keep working from here.
        commit(&recovered, 8, b"a", b"4");
        recovered.checkpoint().unwrap();
        wal.crash(CrashStyle::DropVolatile);
        ckpt.crash(CrashStyle::DropVolatile);
        let (again, report) = open(&wal, &ckpt);
        assert_eq!(report.replayed, 0, "state came from the chain");
        let mut want = want;
        want.insert(b"a".to_vec(), b"4".to_vec());
        assert_eq!(dump(&again), want, "delta: {delta}");
    }
}

/// The same window with the log's tail still volatile when the checkpoint
/// starts: a deferred commit (the server loop's epoch path) that no force has
/// covered yet. The checkpoint must force the log before its segment claims
/// that commit. If it did not, the crash would leave a chain holding the
/// deferred commit beside a log that ends before it, and replaying that
/// shorter log would take `k` back to 1 while `m` kept the chain's 2 — half
/// a transaction.
#[test]
fn checkpoint_forces_the_log_before_the_chain_claims_it() {
    for delta in [false, true] {
        let wal = SimDisk::new();
        let ckpt = SimDisk::new();
        let (store, _) = open(&wal, &ckpt);
        commit(&store, 1, b"old", b"kept");
        if delta {
            store.checkpoint().unwrap();
        }
        commit(&store, 2, b"k", b"1");
        store.begin(3).unwrap();
        store.put(3, b"k", b"2").unwrap();
        store.put(3, b"m", b"2").unwrap();
        store.commit_deferred(3).unwrap();
        assert!(wal.volatile_len() > 0, "the deferred commit is unforced");
        let want = dump(&store);

        let chain_len = ckpt.durable_len();
        wal.fail_resets();
        assert!(store.checkpoint().is_err(), "the log reset must fail");
        wal.repair();
        assert!(
            ckpt.durable_len() > chain_len,
            "segment durable (delta: {delta})"
        );
        assert_eq!(wal.volatile_len(), 0, "log forced (delta: {delta})");
        drop(store);
        wal.crash(CrashStyle::DropVolatile);
        ckpt.crash(CrashStyle::DropVolatile);

        let (recovered, _) = open(&wal, &ckpt);
        assert_eq!(dump(&recovered), want, "delta: {delta}");
    }
}
