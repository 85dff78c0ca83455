//! Recovery-side metrics match ground truth across every crash shape: redo
//! record counts, torn-tail truncations, in-doubt transactions, and (through
//! the queue manager, via the dev-only dependency) index rebuild size and
//! the depth gauge after a restart.

use rrq_obs::Session;
use rrq_storage::disk::{CrashStyle, Disk, SimDisk, TornWriteMode};
use rrq_storage::kv::KvStore;
use rrq_storage::recovery::RecoveryReport;
use std::sync::Arc;

fn reopen(wal: &SimDisk, ckpt: &SimDisk) -> (Arc<KvStore>, RecoveryReport) {
    KvStore::open(Arc::new(wal.clone()), Arc::new(ckpt.clone())).unwrap()
}

/// Two synced commits, an unsynced garbage tail, then a torn crash: every
/// mode must report exactly one truncation and replay exactly the two
/// committed records.
#[test]
fn recovery_counters_match_ground_truth_for_every_torn_mode() {
    for mode in TornWriteMode::ALL {
        let session = Session::start();
        let wal = SimDisk::new();
        let ckpt = SimDisk::new();
        let (store, _) = reopen(&wal, &ckpt);
        for txn in 1..=2u64 {
            store.begin(txn).unwrap();
            store
                .put(txn, format!("k{txn}").as_bytes(), b"durable")
                .unwrap();
            store.commit(txn).unwrap();
        }
        // A frame fragment that never reached a sync.
        wal.append(b"half-written frame bytes").unwrap();
        assert!(wal.volatile_len() > 0, "{mode:?}");
        wal.crash_torn(mode);
        ckpt.crash(CrashStyle::DropVolatile);
        drop(store);

        let before = session.snapshot();
        let (store2, report) = reopen(&wal, &ckpt);
        let delta = session.snapshot().diff(&before);

        assert_eq!(delta.counter("storage.recovery.runs"), 1, "{mode:?}");
        assert_eq!(report.replayed, 2, "{mode:?}");
        assert_eq!(
            delta.counter("storage.recovery.redo_records"),
            2,
            "{mode:?}: one redo per committed put"
        );
        assert_eq!(
            delta.counter("storage.recovery.torn_tail_truncations"),
            1,
            "{mode:?}: the torn tail must be cut exactly once"
        );
        assert_eq!(delta.counter("storage.recovery.in_doubt"), 0, "{mode:?}");
        assert_eq!(store2.get(None, b"k1").unwrap().unwrap(), b"durable");
    }
}

/// A clean crash (volatile bytes dropped, no torn frame) replays the same
/// work with zero truncations.
#[test]
fn clean_crash_recovery_reports_no_truncation() {
    let session = Session::start();
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = reopen(&wal, &ckpt);
    for txn in 1..=3u64 {
        store.begin(txn).unwrap();
        store.put(txn, format!("k{txn}").as_bytes(), b"v").unwrap();
        store.commit(txn).unwrap();
    }
    wal.crash(CrashStyle::DropVolatile);
    ckpt.crash(CrashStyle::DropVolatile);
    drop(store);

    let before = session.snapshot();
    let (_store2, report) = reopen(&wal, &ckpt);
    let delta = session.snapshot().diff(&before);
    assert_eq!(report.replayed, 3);
    assert_eq!(delta.counter("storage.recovery.runs"), 1);
    assert_eq!(delta.counter("storage.recovery.redo_records"), 3);
    assert_eq!(delta.counter("storage.recovery.torn_tail_truncations"), 0);
    assert_eq!(delta.counter("storage.recovery.in_doubt"), 0);
}

/// A prepared-but-undecided transaction surfaces in the in-doubt counter
/// and not in the redo count.
#[test]
fn prepared_transaction_counts_as_in_doubt_not_redo() {
    let session = Session::start();
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = reopen(&wal, &ckpt);
    store.begin(7).unwrap();
    store.put(7, b"x", b"1").unwrap();
    store.prepare(7).unwrap();
    wal.crash(CrashStyle::DropVolatile);
    ckpt.crash(CrashStyle::DropVolatile);
    drop(store);

    let before = session.snapshot();
    let (_store2, report) = reopen(&wal, &ckpt);
    let delta = session.snapshot().diff(&before);
    assert_eq!(report.in_doubt, vec![7]);
    assert_eq!(delta.counter("storage.recovery.in_doubt"), 1);
    assert_eq!(delta.counter("storage.recovery.redo_records"), 0);
    assert_eq!(delta.counter("storage.recovery.torn_tail_truncations"), 0);
}

/// Queue-manager recovery: the rebuild scan's element counter and the depth
/// gauge both land exactly on the number of surviving elements, for a clean
/// crash and for every torn-write mode.
#[test]
fn index_rebuild_metrics_match_survivors_for_every_crash_shape() {
    use rrq_qm::ops::EnqueueOptions;
    use rrq_qm::repository::{RepoDisks, Repository};

    let shapes = [
        None,
        Some(TornWriteMode::Midway),
        Some(TornWriteMode::FullLengthCorrupt),
        Some(TornWriteMode::HeaderOnly),
    ];
    for torn in shapes {
        let session = Session::start();
        let disks = RepoDisks::new();
        let (repo, _) = Repository::open("recovery-metrics", disks.clone()).unwrap();
        repo.create_queue_defaults("q").unwrap();
        let (h, _) = repo.qm().register("q", "c", false).unwrap();
        for i in 0..5u8 {
            repo.autocommit(|t| {
                repo.qm()
                    .enqueue(t.id().raw(), &h, &[i], EnqueueOptions::default())
            })
            .unwrap();
        }
        let (total, gauge) = repo.qm().depth_accounting();
        assert_eq!((total, gauge), (5, 5), "{torn:?}: pre-crash accounting");

        disks.crash_with(torn);
        drop(repo); // retires the old incarnation's gauge contribution

        let before = session.snapshot();
        let (repo2, _) = Repository::open("recovery-metrics", disks.clone()).unwrap();
        let delta = session.snapshot().diff(&before);
        assert_eq!(
            delta.counter("qm.recovery.index_rebuild"),
            5,
            "{torn:?}: rebuild scan re-inserts every durable element"
        );
        let (total, gauge) = repo2.qm().depth_accounting();
        assert_eq!(total, 5, "{torn:?}: all five elements survive");
        assert_eq!(gauge, 5, "{torn:?}: gauge re-arms to exactly the survivors");
    }
}
