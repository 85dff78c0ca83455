//! Directed crash-window tests for cross-partition two-phase commit.
//!
//! The partition-equivalence battery (`repo_partition_equiv.rs`) shows
//! partitioning is invisible when nothing goes wrong mid-protocol. This
//! file aims at the two windows that make shared-nothing 2PC hard:
//!
//! * A cross-partition move prepared on both partitions whose *home*
//!   partition then loses its devices. On recovery the transaction
//!   resurfaces as in-doubt and must resolve from the shared coordinator
//!   log alone — commit-way when a decision was logged, abort-way
//!   (presumed abort) when the crash hit before the decision record.
//! * A partition-local request, which must be provably free of
//!   cross-partition machinery: no sibling enlistments, no two-phase
//!   rounds, no sibling lock grants, not one byte appended to a sibling's
//!   WAL — counter-asserted on all four surfaces (`repo_xpart_local.rs`).
//!
//! A checked-in fault script (`data/repo-crash-xpart.rrqs`) rides along in
//! `repo_xpart_script.rs`: at five repository partitions the explorer's
//! request and reply queues land on *different* partitions, so every request
//! commits through the logged two-phase protocol, and the script's
//! partition-scoped crashes straddle those commits. The oracle battery must
//! stay silent. (Both hold a metrics session over the process-global
//! registry, so each is a test file — a process — of its own.)

use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use rrq_qm::route::partition_of;
use rrq_txn::{CoordinatorLog, ResourceManager};
use std::sync::Arc;

fn partitioned(name: &str, disks: RepoDisks, n: usize) -> Repository {
    Repository::open_with(
        name,
        disks,
        RepoOptions {
            repo_partitions: n,
            ..RepoOptions::default()
        },
    )
    .unwrap()
    .0
}

/// Two queue names guaranteed to live on different partitions of `repo`.
fn two_queues_apart(repo: &Repository) -> (String, String) {
    let qa = "q0".to_string();
    let pa = repo.partition_of(&qa);
    for i in 1..64 {
        let qb = format!("q{i}");
        if repo.partition_of(&qb) != pa {
            return (qa, qb);
        }
    }
    panic!("no second partition reachable in 64 queue names");
}

/// Build a cross-partition move (dequeue from `qa`, enqueue to `qb`), drive
/// it through *both* prepare phases, and abandon it mid-protocol — exactly
/// the state a coordinator crash between prepare and commit leaves behind.
/// Returns the prepared transaction's raw id.
fn prepare_xpart_move(repo: &Repository, qa: &str, qb: &str) -> u64 {
    let (ha, _) = repo.qm_for(qa).register(qa, "mv", false).unwrap();
    let (hb, _) = repo.qm_for(qb).register(qb, "mv", false).unwrap();
    repo.autocommit_on(qa, |t| {
        repo.qm_for(qa)
            .enqueue(t.id().raw(), &ha, b"moved", EnqueueOptions::default())
    })
    .unwrap();

    let (txn, home) = repo.begin_on(qa).unwrap();
    let e = repo
        .qm_for(qa)
        .dequeue(txn.id().raw(), &ha, DequeueOptions::default())
        .unwrap();
    let qm_b = repo.enlist_queue(&txn, home, qb).unwrap();
    qm_b.enqueue(txn.id().raw(), &hb, &e.payload, EnqueueOptions::default())
        .unwrap();
    assert_eq!(txn.enlisted(), 2, "move must span two partitions");

    let id = txn.id();
    ResourceManager::prepare(&**repo.qm_for(qa), id).unwrap();
    ResourceManager::prepare(&**repo.qm_for(qb), id).unwrap();
    // The crash happens "now": no commit, no abort, no lock release. The
    // leaked lock state dies with this repository instance.
    std::mem::forget(txn);
    id.raw()
}

/// Crash the home partition after prepare but *before* any decision record:
/// recovery must resurface the transaction as in-doubt on both partitions
/// and resolve it by presumed abort — element back on `qa`, nothing on `qb`.
#[test]
fn prepared_xpart_move_resolves_abort_after_home_partition_crash() {
    let disks = RepoDisks::new();
    let (qa, qb);
    {
        let repo = partitioned("xa", disks.clone(), 4);
        (qa, qb) = two_queues_apart(&repo);
        repo.create_queue_defaults(&qa).unwrap();
        repo.create_queue_defaults(&qb).unwrap();
        let _ = prepare_xpart_move(&repo, &qa, &qb);
    }
    let home = partition_of(&qa, 4);
    disks.crash_partition(home, None);

    let (repo2, report) = Repository::open_with(
        "xa",
        disks,
        RepoOptions {
            repo_partitions: 4,
            ..RepoOptions::default()
        },
    )
    .unwrap();
    assert!(
        !report.in_doubt.is_empty(),
        "prepared transaction must resurface as in-doubt"
    );
    assert_eq!(repo2.qm_for(&qa).depth(&qa).unwrap(), 1, "dequeue undone");
    assert_eq!(repo2.qm_for(&qb).depth(&qb).unwrap(), 0, "enqueue undone");
    // No leaked locks on either partition: the element is takeable.
    let (ha, _) = repo2.qm_for(&qa).register(&qa, "after", false).unwrap();
    let e = repo2
        .autocommit_on(&qa, |t| {
            repo2
                .qm_for(&qa)
                .dequeue(t.id().raw(), &ha, DequeueOptions::default())
        })
        .unwrap();
    assert_eq!(e.payload, b"moved");
}

/// Same window, but the coordinator's commit decision hit the shared log
/// before the home partition died: recovery must resolve the in-doubt
/// transaction commit-way on both partitions — element gone from `qa`,
/// present on `qb`.
#[test]
fn prepared_xpart_move_resolves_commit_after_home_partition_crash() {
    let disks = RepoDisks::new();
    let (qa, qb);
    let txn_raw;
    {
        let repo = partitioned("xc", disks.clone(), 4);
        (qa, qb) = two_queues_apart(&repo);
        repo.create_queue_defaults(&qa).unwrap();
        repo.create_queue_defaults(&qb).unwrap();
        txn_raw = prepare_xpart_move(&repo, &qa, &qb);
    }
    // The decision record lands in the cluster-shared coordinator log —
    // the same device every partition's recovery consults.
    CoordinatorLog::new(Arc::new(disks.coord.clone()))
        .log_decision(rrq_txn::TxnId(txn_raw), true)
        .unwrap();
    let home = partition_of(&qa, 4);
    disks.crash_partition(home, None);

    let (repo2, report) = Repository::open_with(
        "xc",
        disks,
        RepoOptions {
            repo_partitions: 4,
            ..RepoOptions::default()
        },
    )
    .unwrap();
    assert!(
        !report.in_doubt.is_empty(),
        "prepared transaction must resurface as in-doubt"
    );
    assert_eq!(repo2.qm_for(&qa).depth(&qa).unwrap(), 0, "dequeue kept");
    assert_eq!(repo2.qm_for(&qb).depth(&qb).unwrap(), 1, "enqueue kept");
    let (hb, _) = repo2.qm_for(&qb).register(&qb, "after", false).unwrap();
    let e = repo2
        .autocommit_on(&qb, |t| {
            repo2
                .qm_for(&qb)
                .dequeue(t.id().raw(), &hb, DequeueOptions::default())
        })
        .unwrap();
    assert_eq!(
        e.payload, b"moved",
        "moved element committed on the sibling"
    );
}
