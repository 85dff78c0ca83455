//! The body of an element crosses the log once, when it is enqueued (§4.3's
//! "durable copy of … the element contents" is the element itself): a tagged
//! dequeue by a stable registration moves the row to `d/<eid>` with a
//! key-only log record and that registration's next tagged operation, its
//! deregistration or its queue's destruction deletes it; every other dequeue
//! deletes the element. So a repository's store does not grow with the
//! requests it has served.
//!
//! Seeded drill (by hand, as the ones in `.claude/skills/verify`): drop the
//! `delete` of `recorded.retired` from `QueueManager::record_op` —
//! `round_trips_leave_one_retained_row_per_registration_and_a_flat_store`
//! must fail on `retention_divergence()`.

use rrq_qm::element::Eid;
use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::QmError;
use rrq_storage::disk::Disk;

fn tagged_enqueue(repo: &Repository, h: &QueueHandle, payload: &[u8], tag: &[u8]) -> Eid {
    repo.autocommit(|t| {
        let opts = EnqueueOptions {
            tag: Some(tag.to_vec()),
            ..Default::default()
        };
        repo.qm().enqueue(t.id().raw(), h, payload, opts)
    })
    .unwrap()
}

fn dequeue(repo: &Repository, h: &QueueHandle, tag: Option<&[u8]>) -> Eid {
    repo.autocommit(|t| {
        let opts = DequeueOptions {
            tag: tag.map(<[u8]>::to_vec),
            ..Default::default()
        };
        repo.qm().dequeue(t.id().raw(), h, opts).map(|e| e.eid)
    })
    .unwrap()
}

fn rows(repo: &Repository, prefix: &[u8]) -> usize {
    repo.store().scan_prefix(None, prefix).unwrap().len()
}

fn assert_self_checks(repo: &Repository) {
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
}

#[test]
fn a_tagged_dequeue_logs_keys_not_the_body() {
    let disks = RepoDisks::new();
    let (repo, _) = Repository::open("ret-bytes", disks.clone()).unwrap();
    repo.create_queue_defaults("q").unwrap();
    let (h, _) = repo.qm().register("q", "c", true).unwrap();
    let body = vec![0x5A; 4096];
    let enqueue_from = disks.wal.len();
    let first = tagged_enqueue(&repo, &h, &body, b"send-1");
    let enqueue_bytes = disks.wal.len() - enqueue_from;
    assert!(
        (4096..4096 + 512).contains(&enqueue_bytes),
        "the body is logged once, with the element and the registration: {enqueue_bytes}"
    );
    let second = tagged_enqueue(&repo, &h, &body, b"send-2");

    // The first retaining dequeue: a move and the registration.
    let from = disks.wal.len();
    assert_eq!(dequeue(&repo, &h, Some(b"recv-1")), first);
    let retaining = disks.wal.len() - from;
    assert!(retaining < 256, "tagged dequeue appended {retaining} bytes");
    // The next one also deletes the row the first one retained.
    let from = disks.wal.len();
    assert_eq!(dequeue(&repo, &h, Some(b"recv-2")), second);
    let retiring = disks.wal.len() - from;
    assert!(retiring < 256, "tagged dequeue appended {retiring} bytes");
    assert_eq!(repo.qm().read(second).unwrap().payload, body);
    assert!(matches!(
        repo.qm().read(first),
        Err(QmError::NoSuchElement(_))
    ));
    assert_self_checks(&repo);

    // The retained row survives a crash although its body was never logged
    // under the key it now has, and a checkpoint in between as well.
    drop(repo);
    disks.crash();
    let (repo, _) = Repository::open("ret-bytes", disks.clone()).unwrap();
    assert_eq!(repo.qm().read(second).unwrap().payload, body);
    repo.checkpoint().unwrap();
    drop(repo);
    disks.crash();
    let (repo, _) = Repository::open("ret-bytes", disks).unwrap();
    assert_eq!(repo.qm().read(second).unwrap().payload, body);
    assert_self_checks(&repo);
}

#[test]
fn round_trips_leave_one_retained_row_per_registration_and_a_flat_store() {
    let repo = Repository::create("ret-flat").unwrap();
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults("reply").unwrap();
    // The clerk's two stable registrations and the server's unstable ones.
    let (send, _) = repo.qm().register("req", "client", true).unwrap();
    let (recv, _) = repo.qm().register("reply", "client", true).unwrap();
    let (serve, _) = repo.qm().register("req", "server", false).unwrap();
    let (answer, _) = repo.qm().register("reply", "server", false).unwrap();
    let round = |i: u32| {
        let tag = i.to_le_bytes();
        tagged_enqueue(&repo, &send, &[7; 300], &tag);
        // Fig 5's server: dequeue the request and enqueue the reply in one
        // transaction, neither tagged.
        repo.autocommit(|t| {
            let txn = t.id().raw();
            let req = repo.qm().dequeue(txn, &serve, DequeueOptions::default())?;
            repo.qm()
                .enqueue(txn, &answer, &req.payload, EnqueueOptions::default())
        })
        .unwrap();
        dequeue(&repo, &recv, Some(&tag));
    };
    round(0);
    let keys = repo.store().committed_len();
    for i in 1..1000 {
        round(i);
        if i % 100 == 0 {
            assert_self_checks(&repo);
        }
    }
    assert_eq!(repo.store().committed_len(), keys, "the store stayed flat");
    assert_eq!(rows(&repo, b"d/"), 1, "the last reply, and nothing older");
    assert_eq!(rows(&repo, b"e/"), 0);
    assert_eq!(rows(&repo, b"x/"), 0);
    assert_self_checks(&repo);

    repo.qm().deregister(&recv).unwrap();
    assert_eq!(rows(&repo, b"d/"), 0);
    assert_self_checks(&repo);
}

#[test]
fn a_volatile_queue_retains_in_the_main_memory_store() {
    let disks = RepoDisks::new();
    let (repo, _) = Repository::open("ret-vol", disks.clone()).unwrap();
    let mut meta = QueueMeta::with_defaults("vol");
    meta.durable = false;
    repo.qm().create_queue(meta).unwrap();
    let (h, _) = repo.qm().register("vol", "c", true).unwrap();
    let volatile = repo.qm().volatile_store().clone();
    let retained = |n: usize| assert_eq!(volatile.scan_prefix(None, b"d/").unwrap().len(), n);

    let first = tagged_enqueue(&repo, &h, b"one", b"t1");
    let second = tagged_enqueue(&repo, &h, b"two", b"t2");
    assert_eq!(dequeue(&repo, &h, Some(b"t3")), first);
    assert_eq!(repo.qm().read(first).unwrap().payload, b"one");
    retained(1);
    assert_eq!(rows(&repo, b"d/"), 0, "nothing of it in the durable store");
    assert_self_checks(&repo);
    assert_eq!(dequeue(&repo, &h, Some(b"t4")), second);
    assert!(repo.qm().read(first).is_err());
    retained(1);
    assert_self_checks(&repo);

    // The registration outlives a crash, the row it names does not; and
    // deregistering has nothing to delete.
    drop(repo);
    disks.crash();
    let (repo, _) = Repository::open("ret-vol", disks).unwrap();
    let (h, reg) = repo.qm().register("vol", "c", true).unwrap();
    assert_eq!(reg.retained(), Some(second));
    assert!(repo.qm().read(second).is_err());
    assert_self_checks(&repo);
    let third = tagged_enqueue(&repo, &h, b"three", b"t5");
    assert_eq!(dequeue(&repo, &h, Some(b"t6")), third);
    repo.qm().deregister(&h).unwrap();
    assert!(repo.qm().read(third).is_err());
    assert_self_checks(&repo);
}

#[test]
fn destroying_a_volatile_queue_leaves_no_row_in_either_store() {
    let repo = Repository::create("ret-destroy").unwrap();
    let mut meta = QueueMeta::with_defaults("vol");
    meta.durable = false;
    repo.qm().create_queue(meta).unwrap();
    let (h, _) = repo.qm().register("vol", "c", true).unwrap();
    for i in 0..3u8 {
        tagged_enqueue(&repo, &h, &[i], &[i]);
    }
    dequeue(&repo, &h, Some(b"t"));
    let volatile = repo.qm().volatile_store().clone();
    assert_eq!(volatile.committed_len(), 2 + 1, "two live, one retained");
    let joined = volatile.txn_counts();
    repo.qm().destroy_queue("vol").unwrap();
    assert_eq!(volatile.committed_len(), 0);
    assert_eq!(
        volatile.txn_counts(),
        (joined.0 + 1, joined.1),
        "one system transaction joined it, and committed"
    );
    assert_eq!(rows(&repo, b"r/"), 0);
    assert_eq!(rows(&repo, b"m/"), 0);
    assert_self_checks(&repo);
}
