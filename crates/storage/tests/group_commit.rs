//! Crash-safety regression tests for group commit ([`Wal::force_through`]).
//!
//! The dangerous window group commit introduces: a follower's commit record
//! is made durable by the *leader's* force, and the crash may land after that
//! force but before the follower ever observes it (the "ack"). The write-ahead
//! rule still holds — the record is on the platter — so recovery must replay
//! the follower's transaction even though its thread never finished commit().
//! Symmetrically, an abort whose record is still volatile must never come
//! back as committed.

use rrq_storage::disk::{CrashStyle, Disk, SimDisk, TornWriteMode};
use rrq_storage::kv::KvStore;
use rrq_storage::recovery::replay;
use rrq_storage::wal::{RecordKind, Wal};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn reopen(wal: &SimDisk, ckpt: &SimDisk) -> (Arc<KvStore>, rrq_storage::recovery::RecoveryReport) {
    KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(ckpt.clone()),
        rrq_obs::Obs::default(),
    )
    .unwrap()
}

/// The window, driven deterministically at the WAL level: the leader's
/// force covers a follower's commit record, the crash hits before the
/// follower acks, and recovery must still replay both.
#[test]
fn crash_between_group_sync_and_follower_ack_loses_nothing() {
    let disk = SimDisk::new();
    let wal = Wal::new(Arc::new(disk.clone()));

    // Two committers reach their commit point; both records are appended.
    let commit = |txn: u64, key: &[u8]| {
        let op = rrq_storage::kv::WriteOp::Put {
            key: key.to_vec(),
            value: b"v".to_vec(),
        };
        let mut payload = Vec::new();
        rrq_storage::kv::WriteOp::encode_list(&[op], &mut payload);
        wal.append(txn, RecordKind::Commit, &payload).unwrap();
    };
    commit(1, b"leader");
    let leader_target = wal.len();
    commit(2, b"follower");
    let follower_target = wal.len();

    // The leader's force covers the follower's record too.
    wal.force_through(leader_target).unwrap();
    assert_eq!(disk.stats().syncs, 1);

    // CRASH: the follower never got to call force_through (no ack).
    disk.crash(CrashStyle::DropVolatile);

    let out = replay(&wal, Default::default(), |_| {}).unwrap();
    assert_eq!(out.committed_txns, 2, "follower's commit was in the group");
    assert_eq!(out.replayed, 2);

    // The leader's force covered the follower's target: no new sync.
    wal.force_through(follower_target).unwrap();
    assert_eq!(disk.stats().syncs, 1);
}

/// A storm of concurrent committers over a log whose force takes 3 ms, so
/// the committers that are not leading pile up behind the leader's sync:
/// after every thread's commit() returns and the machine crashes, every
/// transaction is recovered — and the disk saw fewer syncs than commits
/// (groups formed).
#[test]
fn concurrent_commit_storm_survives_crash() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5;
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    wal.set_latency(Duration::from_millis(3), Duration::ZERO);
    let (store, _) = reopen(&wal, &ckpt);

    let start = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (store, start) = (Arc::clone(&store), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let txn = t * 1000 + i + 1;
                    store.begin(txn).unwrap();
                    store
                        .put(txn, format!("k/{t}/{i}").as_bytes(), b"v")
                        .unwrap();
                    store.commit(txn).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let commits = THREADS * PER_THREAD;
    let gstats = store.group_commit_stats();
    assert!(
        gstats.groups < gstats.requests || gstats.requests < commits,
        "batching must be visible: {gstats:?} over {commits} commits"
    );

    wal.crash(CrashStyle::DropVolatile);
    let (store2, report) = reopen(&wal, &ckpt);
    assert_eq!(report.committed_txns as u64, commits);
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            assert_eq!(
                store2
                    .get(None, format!("k/{t}/{i}").as_bytes())
                    .unwrap()
                    .as_deref(),
                Some(b"v".as_slice()),
                "commit k/{t}/{i} returned Ok before the crash — must survive"
            );
        }
    }
}

/// An aborted transaction whose `Abort` record was still volatile at crash
/// time must not be resurrected: its redo records are in the log (prepare
/// forced them) but recovery must keep it in-doubt / aborted, never
/// committed — even though committed neighbors in the same group replay.
#[test]
fn aborted_txn_is_not_resurrected_by_a_group_neighbor() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = reopen(&wal, &ckpt);

    // Txn 7 prepares (its writes are forced to the log), then aborts; the
    // abort record stays volatile.
    store.begin(7).unwrap();
    store.put(7, b"ghost", b"boo").unwrap();
    store.prepare(7).unwrap();
    store.abort(7).unwrap();

    // A neighbor commits through the coordinator; its sync makes everything
    // before it durable — including txn 7's volatile abort record, and that
    // is fine: abort is what recovery should conclude anyway.
    store.begin(8).unwrap();
    store.put(8, b"alive", b"yes").unwrap();
    store.commit(8).unwrap();

    // Torn crash: the volatile tail (nothing, or a partial frame) is garbage.
    wal.crash_torn(TornWriteMode::Midway);
    let (store2, report) = reopen(&wal, &ckpt);
    assert_eq!(store2.get(None, b"alive").unwrap(), Some(b"yes".to_vec()));
    assert_eq!(store2.get(None, b"ghost").unwrap(), None, "not resurrected");
    // Whether the abort record survived decides in-doubt vs. resolved; both
    // end in abort, never commit.
    if report.in_doubt.contains(&7) {
        store2.abort(7).unwrap();
    }
    assert_eq!(store2.get(None, b"ghost").unwrap(), None);
}

/// The volatile abort record alone (no neighbor sync) also cannot resurrect:
/// crash drops it, the prepared txn surfaces as in-doubt, coordinator aborts.
#[test]
fn prepared_then_aborted_txn_stays_dead_across_crash() {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = reopen(&wal, &ckpt);
    store.begin(9).unwrap();
    store.put(9, b"zombie", b"no").unwrap();
    store.prepare(9).unwrap();
    store.abort(9).unwrap(); // record appended, never synced

    wal.crash(CrashStyle::DropVolatile);
    let (store2, report) = reopen(&wal, &ckpt);
    assert_eq!(report.in_doubt, vec![9], "abort record was lost: in-doubt");
    assert_eq!(store2.get(None, b"zombie").unwrap(), None);
    store2.abort(9).unwrap();
    assert_eq!(store2.get(None, b"zombie").unwrap(), None);

    wal.crash(CrashStyle::DropVolatile);
    let (store3, _) = reopen(&wal, &ckpt);
    assert_eq!(store3.get(None, b"zombie").unwrap(), None);
}
