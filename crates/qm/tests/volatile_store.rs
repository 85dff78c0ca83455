//! The main-memory store behind volatile queues (§10, `KvStore::volatile`):
//! a transaction joins it at its first touch of a volatile queue and not
//! before, commits and aborts it together with the durable store, and leaves
//! nothing of it behind a crash but the queue's metadata.

use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::QmError;
use rrq_storage::wal::GroupCommitStats;
use rrq_txn::ResourceManager;

/// A repository with a durable queue `dur` and a volatile queue `vol`, and a
/// handle on each.
fn repo_with_both(disks: RepoDisks) -> (Repository, QueueHandle, QueueHandle) {
    let (repo, _) = Repository::open("vs", disks).unwrap();
    repo.create_queue_defaults("dur").unwrap();
    let mut vol = QueueMeta::with_defaults("vol");
    vol.durable = false;
    match repo.qm().create_queue(vol) {
        Ok(()) | Err(QmError::QueueExists(_)) => {}
        Err(e) => panic!("{e}"),
    }
    let (hd, _) = repo.qm().register("dur", "t", false).unwrap();
    let (hv, _) = repo.qm().register("vol", "t", false).unwrap();
    (repo, hd, hv)
}

fn enqueue(repo: &Repository, txn: u64, h: &QueueHandle, payload: &[u8]) {
    repo.qm()
        .enqueue(txn, h, payload, EnqueueOptions::default())
        .unwrap();
}

fn try_dequeue(repo: &Repository, h: &QueueHandle) -> Option<Vec<u8>> {
    let r = repo.autocommit(|t| {
        repo.qm()
            .dequeue(t.id().raw(), h, DequeueOptions::default())
    });
    match r {
        Ok(e) => Some(e.payload),
        Err(QmError::Empty(_)) => None,
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn durable_traffic_never_reaches_the_volatile_store() {
    let (repo, hd, _) = repo_with_both(RepoDisks::new());
    for i in 0..1000u32 {
        repo.autocommit(|t| {
            enqueue(&repo, t.id().raw(), &hd, &i.to_le_bytes());
            Ok(())
        })
        .unwrap();
        assert_eq!(try_dequeue(&repo, &hd), Some(i.to_le_bytes().to_vec()));
    }
    let volatile = repo.qm().volatile_store();
    assert_eq!(volatile.txn_counts(), (0, 0));
    assert_eq!(volatile.wal_len(), 0);
}

#[test]
fn one_transaction_over_both_stores_commits_and_aborts_as_one() {
    let (repo, hd, hv) = repo_with_both(RepoDisks::new());
    let both = |txn: u64| {
        enqueue(&repo, txn, &hd, b"d");
        enqueue(&repo, txn, &hv, b"v");
    };

    let txn = repo.begin().unwrap();
    both(txn.id().raw());
    assert_eq!(repo.qm().depth("vol").unwrap(), 0, "uncommitted");
    txn.abort().unwrap();
    assert_eq!(repo.qm().depth("dur").unwrap(), 0);
    assert_eq!(repo.qm().depth("vol").unwrap(), 0);
    assert_eq!(repo.qm().depth_scan("vol").unwrap(), 0, "nothing stored");

    repo.autocommit(|t| {
        both(t.id().raw());
        Ok(())
    })
    .unwrap();
    assert_eq!(repo.qm().depth("dur").unwrap(), 1);
    assert_eq!(repo.qm().depth("vol").unwrap(), 1);
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
    assert_eq!(repo.qm().volatile_store().txn_counts(), (1, 1));
    assert_eq!(try_dequeue(&repo, &hv).as_deref(), Some(&b"v"[..]));
    assert_eq!(try_dequeue(&repo, &hd).as_deref(), Some(&b"d"[..]));
}

#[test]
fn deferred_commit_offers_the_volatile_element_only_after_close_epoch() {
    let (repo, hd, hv) = repo_with_both(RepoDisks::new());
    let txn = repo.begin().unwrap();
    repo.qm().defer_commit(txn.id().raw());
    enqueue(&repo, txn.id().raw(), &hd, b"d");
    enqueue(&repo, txn.id().raw(), &hv, b"v");
    txn.commit().unwrap();

    assert_eq!(repo.qm().deferred_commits(), 1);
    assert_eq!(
        repo.qm().depth("vol").unwrap(),
        0,
        "not shown before the force"
    );
    assert_eq!(try_dequeue(&repo, &hv), None);
    assert_eq!(repo.qm().close_epoch().unwrap(), 1);
    assert_eq!(repo.qm().depth("vol").unwrap(), 1);
    assert_eq!(try_dequeue(&repo, &hv).as_deref(), Some(&b"v"[..]));
    assert_eq!(try_dequeue(&repo, &hd).as_deref(), Some(&b"d"[..]));
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
}

#[test]
fn crash_keeps_the_durable_element_and_the_volatile_queue_but_not_its_contents() {
    let disks = RepoDisks::new();
    {
        let (repo, hd, hv) = repo_with_both(disks.clone());
        repo.qm()
            .update_queue("vol", |m| m.alert_threshold = Some(7))
            .unwrap();
        repo.autocommit(|t| {
            enqueue(&repo, t.id().raw(), &hd, b"kept");
            enqueue(&repo, t.id().raw(), &hv, b"gone");
            Ok(())
        })
        .unwrap();
        assert_eq!(repo.qm().depth("vol").unwrap(), 1);
    }
    disks.crash();
    let (repo, hd, hv) = repo_with_both(disks);
    assert_eq!(repo.qm().depth("dur").unwrap(), 1);
    assert_eq!(repo.qm().depth("vol").unwrap(), 0);
    let meta = repo.qm().queue_meta("vol").unwrap();
    assert!(!meta.durable, "still a volatile queue");
    assert_eq!(meta.alert_threshold, Some(7), "metadata is durable");
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
    assert_eq!(try_dequeue(&repo, &hd).as_deref(), Some(&b"kept"[..]));
    assert_eq!(try_dequeue(&repo, &hv), None);
    // The queue works again in the new incarnation.
    repo.autocommit(|t| {
        enqueue(&repo, t.id().raw(), &hv, b"fresh");
        Ok(())
    })
    .unwrap();
    assert_eq!(try_dequeue(&repo, &hv).as_deref(), Some(&b"fresh"[..]));
}

#[test]
fn two_phase_commit_prepares_the_volatile_side_without_a_force() {
    let (repo, _) = Repository::open("vs2", RepoDisks::partitioned(4)).unwrap();
    // A durable queue at home, a volatile queue on another partition.
    let home_q = "q0".to_string();
    let far_q = (1..64)
        .map(|i| format!("q{i}"))
        .find(|q| repo.partition_of(q) != repo.partition_of(&home_q))
        .expect("a queue on a second partition");
    repo.create_queue_defaults(&home_q).unwrap();
    let mut vol = QueueMeta::with_defaults(&far_q);
    vol.durable = false;
    repo.qm_for(&far_q).create_queue(vol).unwrap();
    let (hh, _) = repo.qm_for(&home_q).register(&home_q, "t", false).unwrap();
    let (hf, _) = repo.qm_for(&far_q).register(&far_q, "t", false).unwrap();
    let far = repo.qm_for(&far_q);
    let far_forces = || repo.store_for(&far_q).group_commit_stats().requests;

    let (txn, home) = repo.begin_on(&home_q).unwrap();
    let t = txn.id().raw();
    repo.qm_for(&home_q)
        .enqueue(t, &hh, b"d", EnqueueOptions::default())
        .unwrap();
    repo.enlist_queue(&txn, home, &far_q)
        .unwrap()
        .enqueue(t, &hf, b"v", EnqueueOptions::default())
        .unwrap();
    assert_eq!(txn.enlisted(), 2);

    // Phase one, by hand: the far partition's durable store forces its
    // prepare record, its main-memory store only marks the transaction.
    let before = far_forces();
    ResourceManager::prepare(&**far, txn.id()).unwrap();
    assert_eq!(far_forces(), before + 1, "the durable side forced");
    let volatile = far.volatile_store();
    assert!(volatile.is_open(t));
    assert_eq!(volatile.group_commit_stats(), GroupCommitStats::default());
    assert_eq!(volatile.wal_len(), 0);

    txn.commit().unwrap();
    assert_eq!(volatile.txn_counts(), (1, 0));
    assert_eq!(far.depth(&far_q).unwrap(), 1);
    assert_eq!(repo.qm_for(&home_q).depth(&home_q).unwrap(), 1);
    // The home partition's main-memory store was never part of it.
    assert_eq!(
        repo.qm_for(&home_q).volatile_store().txn_counts(),
        (0, 0),
        "home partition"
    );
}
