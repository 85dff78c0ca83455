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
//!   WAL — counter-asserted on all four surfaces.
//!
//! A checked-in fault script (`data/repo-crash-xpart.rrqs`) rides along: at
//! five repository partitions the explorer's request and reply queues land
//! on *different* partitions, so every request commits through the logged
//! two-phase protocol, and the script's partition-scoped crashes straddle
//! those commits. The oracle battery must stay silent.

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::clerk::{Clerk, ClerkConfig, SendMode};
use rrq_core::request::Reply;
use rrq_core::rid::Rid;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use rrq_qm::route::partition_of;
use rrq_sim::explorer::{self, ExplorerConfig};
use rrq_txn::{CoordinatorLog, ResourceManager};
use std::path::PathBuf;
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

/// A partition-local request must touch exactly one partition: zero
/// cross-partition enlistments, zero two-phase rounds, zero sibling lock
/// grants, zero bytes forced to any sibling WAL. Asserted over a full
/// clerk→server round trip with request and reply queues co-located.
#[test]
fn partition_local_request_never_touches_siblings() {
    const PARTS: usize = 4;
    // "req" and "reply.c1" provably share a home at four partitions — the
    // whole round trip (request enqueue, server dequeue+reply, client
    // dequeue) is partition-local by placement.
    assert_eq!(
        partition_of("req", PARTS),
        partition_of("reply.c1", PARTS),
        "test premise: request and reply queues co-located"
    );
    let obs = rrq_obs::Session::start();

    let repo = Arc::new(partitioned("local", RepoDisks::new(), PARTS));
    for q in ["req", "reply.c1"] {
        repo.create_queue_defaults(q).unwrap();
    }
    let home = repo.partition_of("req");
    let siblings: Vec<usize> = (0..PARTS).filter(|&p| p != home).collect();
    let base: Vec<(u64, (u64, u64), u64)> = siblings
        .iter()
        .map(|&p| {
            let tm = repo.tm_at(p);
            let s = tm.locks().stats();
            (
                repo.store_at(p).wal_len(),
                repo.store_at(p).txn_counts(),
                s.immediate_grants + s.waited_grants,
            )
        })
        .collect();

    let server = rrq_core::server::Server::new(
        Arc::clone(&repo),
        rrq_core::server::ServerConfig::new("local-s0", "req"),
        Arc::new(|_ctx, req: &rrq_core::request::Request| {
            Ok(rrq_core::server::HandlerOutcome::Reply(req.body.clone()))
        }),
    )
    .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let t = server.spawn(Arc::clone(&stop));

    let api: Arc<dyn QmApi> = Arc::new(LocalQm::new(Arc::clone(&repo)));
    let mut ccfg = ClerkConfig::new("c1", "req");
    ccfg.send_mode = SendMode::Acked;
    let clerk = Clerk::new(api, ccfg);
    clerk.connect().unwrap();
    for serial in 1..=8u64 {
        let rid = Rid::new("c1", serial);
        clerk
            .send("echo", format!("p{serial}").into_bytes(), rid.clone())
            .unwrap();
        let reply: Reply = clerk.receive(&[]).unwrap();
        assert_eq!(reply.rid, rid);
    }
    clerk.disconnect().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Release);
    t.join().unwrap();

    let snap = obs.snapshot();
    for c in [
        "route.xpart.enlists",
        "txn.twophase.rounds",
        "txn.twophase.decisions",
        "txn.xpart.commits",
        "txn.xpart.aborts",
    ] {
        assert_eq!(snap.counter(c), 0, "partition-local requests bumped {c}");
    }
    for (i, &p) in siblings.iter().enumerate() {
        let tm = repo.tm_at(p);
        let s = tm.locks().stats();
        assert_eq!(
            repo.store_at(p).wal_len(),
            base[i].0,
            "sibling p{p} WAL grew — a partition-local request forced it"
        );
        assert_eq!(
            repo.store_at(p).txn_counts(),
            base[i].1,
            "sibling p{p} saw transactions"
        );
        assert_eq!(
            s.immediate_grants + s.waited_grants,
            base[i].2,
            "sibling p{p} granted locks"
        );
    }
}

/// The checked-in regression script: partition-scoped crashes (one torn)
/// and a single-partition network cut, replayed at five repository
/// partitions — where request and reply queues live on different partitions,
/// so every request commits cross-partition through the coordinator log.
/// The oracle battery must stay silent and every crash must have fired.
#[test]
fn checked_in_repo_crash_script_stays_green_across_xpart_commits() {
    const PARTS: usize = 5;
    assert_ne!(
        partition_of("req", PARTS),
        partition_of("reply.c1", PARTS),
        "test premise: five partitions split the request and reply queues"
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/repo-crash-xpart.rrqs");
    let cfg = ExplorerConfig {
        repo_partitions: PARTS,
        ..ExplorerConfig::default()
    };
    let (script, outcome) = explorer::replay_file(&path, &cfg).unwrap();
    assert_eq!(script.events.len(), 4, "script should carry four events");
    assert_eq!(
        outcome.violations,
        Vec::<String>::new(),
        "oracle battery must stay green across partition-scoped crashes; trace:\n{:#?}",
        outcome.trace
    );
    assert_eq!(outcome.server_crashes, 3, "all three repo crashes fired");
}
