//! Directed crash-window tests for cross-partition two-phase commit.
//!
//! The partition-equivalence battery (`repo_partition_equiv.rs`) shows
//! partitioning is invisible when nothing goes wrong mid-protocol. This
//! file aims at the windows that make shared-nothing 2PC hard. A move
//! homed on partition A with a sibling B runs: B prepares (forced), A
//! commits one-phase with the decision row `o/<txn>` in its own write set
//! (forced), B commits. Driven by hand, step by step:
//!
//! * A crash after B's prepare and before A's commit: on recovery B is in
//!   doubt, no partition holds a row, and the move aborts on both
//!   (presumed abort).
//! * A crash after A's commit and before B's: B is in doubt, A's recovered
//!   tree holds the row, and the move commits on both — whether A alone
//!   crashed or every partition did, and even when the epoch loop had
//!   deferred A's commit.
//! * After a completed move and a reopen, no decision row is left anywhere;
//!   one committed move costs exactly three device syncs and three appends.
//! * A partition-local request, which must be provably free of
//!   cross-partition machinery: no sibling enlistments, no two-phase
//!   rounds, no sibling lock grants, not one byte appended to a sibling's
//!   WAL, no decision row — counter-asserted through the repository's own
//!   handle.
//!
//! A checked-in fault script (`data/repo-crash-xpart.rrqs`) rides along: at
//! five repository partitions the explorer's request and reply queues land
//! on *different* partitions, so every request commits through the
//! two-phase protocol, and the script's partition-scoped crashes straddle
//! those commits. The oracle battery must stay silent.

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::clerk::{Clerk, ClerkConfig, SendMode};
use rrq_core::request::Reply;
use rrq_core::rid::Rid;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::route::partition_of;
use rrq_sim::explorer::{self, ExplorerConfig};
use rrq_storage::disk::{Disk, DiskStats};
use rrq_txn::twophase::DECISION_PREFIX;
use rrq_txn::{ResourceManager, TxnError, TxnId};
use std::path::PathBuf;
use std::sync::Arc;

fn partitioned(name: &str, disks: RepoDisks) -> Repository {
    Repository::open(name, disks).unwrap().0
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

/// A 4-partition repository with two queues on different partitions, `qa`
/// holding one element to move to `qb`, and the handles that move it.
struct Move {
    repo: Repository,
    qa: String,
    qb: String,
    ha: QueueHandle,
    hb: QueueHandle,
}

impl Move {
    fn new(name: &str, disks: &RepoDisks) -> Move {
        let repo = partitioned(name, disks.clone());
        let (qa, qb) = two_queues_apart(&repo);
        repo.create_queue_defaults(&qa).unwrap();
        repo.create_queue_defaults(&qb).unwrap();
        let (ha, _) = repo.qm_for(&qa).register(&qa, "mv", false).unwrap();
        let (hb, _) = repo.qm_for(&qb).register(&qb, "mv", false).unwrap();
        let m = Move {
            repo,
            qa,
            qb,
            ha,
            hb,
        };
        m.put();
        m
    }

    /// Enqueue one element on `qa`.
    fn put(&self) {
        let (repo, qa) = (&self.repo, self.qa.as_str());
        repo.autocommit_on(qa, |t| {
            repo.qm_for(qa)
                .enqueue(t.id().raw(), &self.ha, b"moved", EnqueueOptions::default())
        })
        .unwrap();
    }

    /// Begin the move homed on `qa`'s partition, `defer`red as the epoch
    /// loop defers a server's transaction, and do its work on both
    /// partitions: dequeue from `qa`, enqueue to `qb`.
    fn start(&self, defer: bool) -> rrq_txn::Txn {
        let (repo, qa) = (&self.repo, self.qa.as_str());
        let (txn, home) = repo.begin_on(qa).unwrap();
        if defer {
            repo.qm_for(qa).defer_commit(txn.id().raw());
        }
        let e = repo
            .qm_for(qa)
            .dequeue(txn.id().raw(), &self.ha, DequeueOptions::default())
            .unwrap();
        let qm_b = repo.enlist_queue(&txn, home, &self.qb).unwrap();
        qm_b.enqueue(
            txn.id().raw(),
            &self.hb,
            &e.payload,
            EnqueueOptions::default(),
        )
        .unwrap();
        assert_eq!(txn.enlisted(), 2, "move must span two partitions");
        txn
    }

    /// Drive the move through the sibling's prepare and, with `decide`, the
    /// home partition's deciding commit, then abandon it mid-protocol — the
    /// state a crash in that window leaves behind. Returns its id.
    fn abandon(&self, defer: bool, decide: bool) -> TxnId {
        let txn = self.start(defer);
        let id = txn.id();
        ResourceManager::prepare(&**self.repo.qm_for(&self.qb), id).unwrap();
        if decide {
            let home = self.repo.qm_for(&self.qa);
            ResourceManager::commit_deciding(&**home, id, &[]).unwrap();
            assert_eq!(home.deferred_commits(), 0, "a decision is never deferred");
        }
        // The crash happens "now": no sibling commit, no lock release. The
        // leaked lock state dies with this repository instance.
        std::mem::forget(txn);
        id
    }

    fn home(&self) -> usize {
        partition_of(&self.qa, 4)
    }
}

/// Reopen after a crash, check that the move's sibling came back in doubt
/// and that the move resolved the same way on both partitions — `committed`
/// or not — and that the moved element is free to take where it landed.
fn reopen_and_check(name: &str, disks: RepoDisks, m: &Move, id: TxnId, committed: bool) {
    let (qa, qb) = (m.qa.as_str(), m.qb.as_str());
    let (repo, report) = Repository::open(name, disks).unwrap();
    assert_eq!(report.in_doubt, vec![id.raw()], "the sibling is in doubt");
    let (from, to) = if committed { (0, 1) } else { (1, 0) };
    assert_eq!(repo.qm_for(qa).depth(qa).unwrap(), from, "on {qa}");
    assert_eq!(repo.qm_for(qb).depth(qb).unwrap(), to, "on {qb}");
    assert_eq!(decision_rows(&repo), 0, "the reopen swept every row");
    // No leaked locks on either partition: the element is takeable.
    let q = if committed { qb } else { qa };
    let (h, _) = repo.qm_for(q).register(q, "after", false).unwrap();
    let e = repo
        .autocommit_on(q, |t| {
            repo.qm_for(q)
                .dequeue(t.id().raw(), &h, DequeueOptions::default())
        })
        .unwrap();
    assert_eq!(e.payload, b"moved");
}

/// Decision rows in every partition's committed tree.
fn decision_rows(repo: &Repository) -> usize {
    (0..repo.partitions())
        .map(|p| {
            let rows = repo.store_at(p).scan_prefix(None, DECISION_PREFIX);
            rows.unwrap().len()
        })
        .sum()
}

/// Crash the home partition after the sibling's prepare but *before* the
/// home's deciding commit: recovery must resurface the transaction as
/// in-doubt on the sibling and resolve it by presumed abort — element back
/// on `qa`, nothing on `qb`.
#[test]
fn prepared_xpart_move_resolves_abort_after_home_partition_crash() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xa", &disks);
    let id = m.abandon(false, false);
    disks.crash_partition(m.home(), None);
    reopen_and_check("xa", disks, &m, id, false);
}

/// The same window with every partition crashed: the sibling's forced
/// prepare survives, no row does, and the move aborts on both.
#[test]
fn prepared_xpart_move_resolves_abort_after_every_partition_crashes() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xa2", &disks);
    let id = m.abandon(false, false);
    disks.crash();
    reopen_and_check("xa2", disks, &m, id, false);
}

/// The home partition's deciding commit made it to its log before the home
/// partition died, the sibling's commit did not happen: recovery must
/// resolve the in-doubt sibling commit-way from the row in the home's
/// recovered tree — element gone from `qa`, present on `qb`.
#[test]
fn prepared_xpart_move_resolves_commit_after_home_partition_crash() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xc", &disks);
    let id = m.abandon(false, true);
    disks.crash_partition(m.home(), None);
    reopen_and_check("xc", disks, &m, id, true);
}

/// The same window with every partition crashed.
#[test]
fn decided_xpart_move_commits_after_every_partition_crashes() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xc2", &disks);
    let id = m.abandon(false, true);
    disks.crash();
    reopen_and_check("xc2", disks, &m, id, true);
}

/// The move the other way round: homed on `qb`'s partition, the sibling
/// dequeuing from `qa`, so the sibling holds the element's lock.
fn start_reversed(m: &Move) -> (rrq_txn::Txn, usize) {
    let (txn, home) = m.repo.begin_on(&m.qb).unwrap();
    let id = txn.id().raw();
    let qm_a = m.repo.enlist_queue(&txn, home, &m.qa).unwrap();
    let e = qm_a.dequeue(id, &m.ha, DequeueOptions::default()).unwrap();
    let opts = EnqueueOptions::default();
    m.repo
        .qm_for(&m.qb)
        .enqueue(id, &m.hb, &e.payload, opts)
        .unwrap();
    (txn, home)
}

/// The home partition's log fails at the decision: the deciding commit's
/// record is appended and its force fails. The transaction is in doubt, not
/// aborted: the sibling stays prepared and keeps the element's lock. A
/// restart that keeps the unsynced record commits the move on both
/// partitions; a crash that drops it aborts it on both.
#[test]
fn a_failed_decision_is_in_doubt_until_the_reopen_decides_it() {
    for (crash, committed) in [(false, true), (true, false)] {
        let disks = RepoDisks::partitioned(4);
        let m = Move::new("xf", &disks);
        let (txn, home) = start_reversed(&m);
        let id = txn.id();
        let sibling = m.repo.partition_of(&m.qa);
        let home_log = &disks.wal_groups[home][0];
        home_log.fail_syncs();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, TxnError::InDoubt(_)), "{err}");
        assert!(
            m.repo.store_at(sibling).is_open(id.raw()),
            "sibling aborted"
        );
        let held = m.repo.tm_at(sibling).locks().held_count(id.raw());
        assert!(held > 0, "the sibling released its locks before the reopen");
        // Neither half is shown: the element stays claimed on `qa` and is
        // not on `qb`.
        assert_eq!(m.repo.qm_for(&m.qa).claimed_entries(), 1);
        assert_eq!(m.repo.qm_for(&m.qb).depth(&m.qb).unwrap(), 0);
        home_log.repair();
        if crash {
            disks.crash_partition(home, None);
        }
        reopen_and_check("xf", disks, &m, id, committed);
    }
}

/// The sibling's log fails at its commit, after the decision: the sibling
/// stays prepared and keeps the element's lock until the reopen, which
/// commits it from the home's row.
#[test]
fn a_sibling_whose_commit_fails_keeps_its_locks_until_the_reopen() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xs", &disks);
    let (txn, _) = start_reversed(&m);
    let id = txn.id();
    let sibling = m.repo.partition_of(&m.qa);
    // Prepared by hand, so the commit's own prepare logs nothing and the
    // failure lands on the sibling's commit.
    ResourceManager::prepare(&**m.repo.qm_for(&m.qa), id).unwrap();
    disks.wal_groups[sibling][0].fail();
    let err = txn.commit().unwrap_err();
    assert!(matches!(err, TxnError::InDoubt(_)), "{err}");
    let held = m.repo.tm_at(sibling).locks().held_count(id.raw());
    assert!(held > 0, "the sibling released its locks before the reopen");
    assert_eq!(m.repo.qm_for(&m.qa).claimed_entries(), 1);
    disks.wal_groups[sibling][0].repair();
    reopen_and_check("xs", disks, &m, id, true);
}

/// A server's epoch loop defers its transaction's commit (one force per
/// epoch). When that transaction's reply goes to a queue on another
/// partition, the home's commit carries the decision and must be forced
/// anyway: a crash of every partition right after it, before the sibling
/// commits and before any epoch close, still commits the move on both.
#[test]
fn a_deferred_home_commit_forces_its_decision() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xd", &disks);
    let id = m.abandon(true, true);
    // Nothing was left to an epoch close: the home shows its half at once.
    assert_eq!(m.repo.qm_for(&m.qa).depth(&m.qa).unwrap(), 0);
    disks.crash();
    reopen_and_check("xd", disks, &m, id, true);
}

/// A completed move leaves its row until the next decision on its home
/// partition deletes it; a reopen deletes whatever is left. After either,
/// no tree holds a row.
#[test]
fn no_decision_row_survives_completed_moves_and_a_reopen() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xr", &disks);
    m.start(false).commit().unwrap();
    assert_eq!(decision_rows(&m.repo), 1, "the latest decision's row");
    m.put();
    m.start(false).commit().unwrap();
    assert_eq!(decision_rows(&m.repo), 1, "the second deleted the first");
    drop(m);
    disks.crash();
    let (repo, report) = Repository::open("xr", disks).unwrap();
    assert!(report.in_doubt.is_empty());
    assert_eq!(decision_rows(&repo), 0);
}

/// Every device of the repository, for counting what a commit costs.
fn disk_totals(disks: &RepoDisks) -> DiskStats {
    let devices = disks.wal_groups.iter().flatten().chain(&disks.ckpts);
    let mut sum = DiskStats::default();
    for d in devices.chain([&disks.coord]) {
        let s = d.stats();
        sum.appends += s.appends;
        sum.syncs += s.syncs;
    }
    sum
}

/// One committed two-partition move costs three device syncs and three
/// appends in all — the sibling's prepare, the home's deciding commit and
/// the sibling's commit — also once a decision carries the delete of an
/// earlier row. The repository's handle counts every one of those forces.
#[test]
fn a_cross_partition_move_costs_three_syncs_and_three_appends() {
    let disks = RepoDisks::partitioned(4);
    let m = Move::new("xcost", &disks);
    let obs = m.repo.obs();
    obs.start();
    for round in 0..2 {
        if round > 0 {
            m.put();
        }
        let txn = m.start(false);
        let (before, forces) = (disk_totals(&disks), obs.snapshot());
        txn.commit().unwrap();
        let after = disk_totals(&disks);
        let counted =
            obs.snapshot().counter("storage.wal.forces") - forces.counter("storage.wal.forces");
        assert_eq!(after.syncs - before.syncs, 3, "round {round}: syncs");
        assert_eq!(after.appends - before.appends, 3, "round {round}: appends");
        assert_eq!(counted, 3, "round {round}: forces seen by the handle");
    }
}

/// A partition-local request must touch exactly one partition: zero
/// cross-partition enlistments, zero two-phase rounds, zero sibling lock
/// grants, zero bytes forced to any sibling WAL, no decision row anywhere.
/// Asserted over a full clerk→server round trip with request and reply
/// queues co-located.
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
    let repo = Arc::new(partitioned("local", RepoDisks::partitioned(PARTS)));
    let obs = repo.obs();
    obs.start();
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
    assert_eq!(decision_rows(&repo), 0, "a one-phase commit wrote a row");
}

/// The checked-in regression script: partition-scoped crashes (one torn)
/// and a single-partition network cut, replayed at five repository
/// partitions — where request and reply queues live on different partitions,
/// so every request commits cross-partition through the two-phase protocol.
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
        repo_partitions: Some(PARTS),
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
