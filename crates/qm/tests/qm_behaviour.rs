//! Behavioural tests for the queue manager, one per paper guarantee.

use rrq_qm::element::Eid;
use rrq_qm::meta::{OrderingMode, QueueMeta};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::registration::LastOp;
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::retrieval::Predicate;
use rrq_qm::trigger::Trigger;
use rrq_qm::QmError;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn repo() -> Repository {
    Repository::create("test").unwrap()
}

fn enq(repo: &Repository, h: &QueueHandle, payload: &[u8]) -> Eid {
    repo.autocommit(|t| {
        repo.qm()
            .enqueue(t.id().raw(), h, payload, EnqueueOptions::default())
    })
    .unwrap()
}

fn deq(repo: &Repository, h: &QueueHandle) -> Result<Vec<u8>, QmError> {
    repo.autocommit(|t| {
        repo.qm()
            .dequeue(t.id().raw(), h, DequeueOptions::default())
            .map(|e| e.payload)
    })
}

#[test]
fn fifo_order_within_priority() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    for i in 0..5u8 {
        enq(&r, &h, &[i]);
    }
    for i in 0..5u8 {
        assert_eq!(deq(&r, &h).unwrap(), vec![i]);
    }
    assert!(matches!(deq(&r, &h), Err(QmError::Empty(_))));
}

#[test]
fn priority_dequeues_first() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    r.autocommit(|t| {
        let qm = r.qm();
        qm.enqueue(t.id().raw(), &h, b"low", EnqueueOptions::default())?;
        qm.enqueue(
            t.id().raw(),
            &h,
            b"high",
            EnqueueOptions {
                priority: 9,
                ..Default::default()
            },
        )?;
        qm.enqueue(
            t.id().raw(),
            &h,
            b"mid",
            EnqueueOptions {
                priority: 5,
                ..Default::default()
            },
        )
    })
    .unwrap();
    assert_eq!(deq(&r, &h).unwrap(), b"high");
    assert_eq!(deq(&r, &h).unwrap(), b"mid");
    assert_eq!(deq(&r, &h).unwrap(), b"low");
}

#[test]
fn aborted_dequeue_returns_element() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"x");

    let txn = r.begin().unwrap();
    let e = r
        .qm()
        .dequeue(txn.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(e.payload, b"x");
    assert_eq!(r.qm().depth("q").unwrap(), 1, "delete not yet committed");
    txn.abort().unwrap();
    assert_eq!(r.qm().depth("q").unwrap(), 1);
    // And the element carries its abort count.
    let again = r
        .autocommit(|t| r.qm().dequeue(t.id().raw(), &h, DequeueOptions::default()))
        .unwrap();
    assert_eq!(again.abort_count, 1);
    assert_eq!(again.eid, e.eid, "element retains its identity");
}

#[test]
fn nth_abort_moves_element_to_error_queue() {
    let r = repo();
    let mut meta = QueueMeta::with_defaults("q");
    meta.retry_limit = 3;
    r.qm().create_queue(meta).unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let eid = enq(&r, &h, b"poison");

    for i in 1..=3 {
        let txn = r.begin().unwrap();
        let got = r
            .qm()
            .dequeue(txn.id().raw(), &h, DequeueOptions::default());
        assert!(got.is_ok(), "attempt {i} should find the element");
        txn.abort().unwrap();
    }
    // After the 3rd abort the element is in q.errors, not q.
    assert_eq!(r.qm().depth("q").unwrap(), 0);
    assert_eq!(r.qm().depth("q.errors").unwrap(), 1);
    let errs = r.qm().query("q.errors", &Predicate::True).unwrap();
    assert_eq!(errs[0].eid, eid, "identity preserved across the move");
    assert_eq!(errs[0].abort_count, 3);
    assert!(errs[0].abort_code != 0, "marked with an abort code");
    assert_eq!(r.qm().stats().error_moves, 1);
}

#[test]
fn requeue_at_back_rotates_aborted_head() {
    let r = repo();
    let mut meta = QueueMeta::with_defaults("q");
    meta.retry_limit = 0;
    meta.requeue_at_back_on_abort = true;
    r.qm().create_queue(meta).unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let first = enq(&r, &h, b"first");
    enq(&r, &h, b"second");

    // Dequeue the head and abort: with the rotate policy it moves to the
    // BACK, so the next dequeue sees "second".
    let txn = r.begin().unwrap();
    let e = r
        .qm()
        .dequeue(txn.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(e.payload, b"first");
    txn.abort().unwrap();

    assert_eq!(deq(&r, &h).unwrap(), b"second");
    let back = r
        .autocommit(|t| r.qm().dequeue(t.id().raw(), &h, DequeueOptions::default()))
        .unwrap();
    assert_eq!(back.payload, b"first");
    assert_eq!(back.eid, first, "identity preserved across rotation");
    assert_eq!(back.abort_count, 1);
}

#[test]
fn retry_limit_zero_retries_forever() {
    let r = repo();
    let mut meta = QueueMeta::with_defaults("q");
    meta.retry_limit = 0;
    r.qm().create_queue(meta).unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"x");
    for _ in 0..10 {
        let txn = r.begin().unwrap();
        r.qm()
            .dequeue(txn.id().raw(), &h, DequeueOptions::default())
            .unwrap();
        txn.abort().unwrap();
    }
    assert_eq!(r.qm().depth("q").unwrap(), 1);
}

#[test]
fn dequeue_error_queue_override_is_honoured() {
    let r = repo();
    let mut meta = QueueMeta::with_defaults("q");
    meta.retry_limit = 1;
    r.qm().create_queue(meta).unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"x");
    let txn = r.begin().unwrap();
    r.qm()
        .dequeue(
            txn.id().raw(),
            &h,
            DequeueOptions {
                error_queue: Some("custom.dead".into()),
                ..Default::default()
            },
        )
        .unwrap();
    txn.abort().unwrap();
    assert_eq!(r.qm().depth("custom.dead").unwrap(), 1);
}

fn deq_tagged(repo: &Repository, h: &QueueHandle, tag: &[u8]) -> Eid {
    repo.autocommit(|t| {
        let opts = DequeueOptions {
            tag: Some(tag.to_vec()),
            ..Default::default()
        };
        repo.qm().dequeue(t.id().raw(), h, opts).map(|e| e.eid)
    })
    .unwrap()
}

#[test]
fn read_works_for_live_and_dequeued_elements() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (stable, _) = r.qm().register("q", "stable", true).unwrap();
    let (unstable, _) = r.qm().register("q", "unstable", false).unwrap();
    let first = enq(&r, &stable, b"first");
    let second = enq(&r, &stable, b"second");
    let third = enq(&r, &stable, b"third");
    let fourth = enq(&r, &stable, b"fourth");
    assert_eq!(r.qm().read(first).unwrap().payload, b"first");

    // Tagged, by a stable registration: retained (§4.3: Read works "even if
    // the last operation was a Dequeue")...
    assert_eq!(deq_tagged(&r, &stable, b"t1"), first);
    assert_eq!(r.qm().read(first).unwrap().payload, b"first");
    assert_eq!(r.qm().retention_divergence().unwrap(), None);
    // ...until that registration's next tagged operation, which retains its
    // own element instead.
    assert_eq!(deq_tagged(&r, &stable, b"t2"), second);
    assert!(matches!(r.qm().read(first), Err(QmError::NoSuchElement(_))));
    assert_eq!(r.qm().read(second).unwrap().payload, b"second");

    // Untagged (every server dequeue), or tagged by a registration that
    // keeps no stable record: the element is gone with the dequeue.
    assert_eq!(deq(&r, &stable).unwrap(), b"third");
    assert!(matches!(r.qm().read(third), Err(QmError::NoSuchElement(_))));
    assert_eq!(deq_tagged(&r, &unstable, b"t3"), fourth);
    assert!(matches!(
        r.qm().read(fourth),
        Err(QmError::NoSuchElement(_))
    ));
    assert_eq!(r.qm().read(second).unwrap().payload, b"second");

    // A tagged enqueue is a tagged operation, too; and so the store holds
    // the new element, its index row, the queue and two registrations.
    let fifth = r
        .autocommit(|t| {
            let opts = EnqueueOptions {
                tag: Some(b"t4".to_vec()),
                ..Default::default()
            };
            r.qm().enqueue(t.id().raw(), &stable, b"fifth", opts)
        })
        .unwrap();
    assert!(matches!(
        r.qm().read(second),
        Err(QmError::NoSuchElement(_))
    ));
    assert_eq!(r.qm().read(fifth).unwrap().payload, b"fifth");
    assert_eq!(r.qm().retention_divergence().unwrap(), None);
    assert_eq!(r.qm().index_divergence().unwrap(), None);
    assert!(r.store().scan_prefix(None, b"d/").unwrap().is_empty());
    assert_eq!(r.store().scan_prefix(None, b"x/").unwrap().len(), 1);
}

#[test]
fn registration_tags_survive_and_return_on_reregister() {
    let disks = RepoDisks::new();
    let (r, _) = Repository::open("t", disks.clone()).unwrap();
    r.create_queue_defaults("req").unwrap();
    let (h, reg) = r.qm().register("req", "client-1", true).unwrap();
    assert_eq!(reg.last_op, LastOp::None);
    let eid = r
        .autocommit(|t| {
            r.qm().enqueue(
                t.id().raw(),
                &h,
                b"request-body",
                EnqueueOptions {
                    tag: Some(b"rid-7".to_vec()),
                    ..Default::default()
                },
            )
        })
        .unwrap();

    // Crash the node, reopen, re-register: tag, eid and operation come back,
    // and the contents are the element's, for as long as it is live.
    drop(r);
    disks.crash();
    let (r2, _) = Repository::open("t", disks.clone()).unwrap();
    let (h2, reg2) = r2.qm().register("req", "client-1", true).unwrap();
    assert_eq!(reg2.last_op, LastOp::Enqueue);
    assert_eq!(reg2.tag.as_deref(), Some(b"rid-7".as_slice()));
    assert_eq!(reg2.eid, Some(eid));
    assert_eq!(r2.qm().read(eid).unwrap().payload, b"request-body");

    // The same after a tagged dequeue: the contents are the retained row.
    assert_eq!(deq_tagged(&r2, &h2, b"ckpt-1"), eid);
    drop(r2);
    disks.crash();
    let (r3, _) = Repository::open("t", disks).unwrap();
    let (_, reg3) = r3.qm().register("req", "client-1", true).unwrap();
    assert_eq!(reg3.last_op, LastOp::Dequeue);
    assert_eq!(reg3.tag.as_deref(), Some(b"ckpt-1".as_slice()));
    assert_eq!(reg3.eid, Some(eid));
    assert_eq!(reg3.retained(), Some(eid));
    assert_eq!(r3.qm().read(eid).unwrap().payload, b"request-body");
    assert_eq!(r3.qm().retention_divergence().unwrap(), None);
}

#[test]
fn tag_update_is_atomic_with_operation() {
    let r = repo();
    r.create_queue_defaults("req").unwrap();
    let (h, _) = r.qm().register("req", "c", true).unwrap();
    // Enqueue with a tag but abort: neither element nor tag must survive.
    let txn = r.begin().unwrap();
    r.qm()
        .enqueue(
            txn.id().raw(),
            &h,
            b"x",
            EnqueueOptions {
                tag: Some(b"rid-1".to_vec()),
                ..Default::default()
            },
        )
        .unwrap();
    txn.abort().unwrap();
    let (_, reg) = r.qm().register("req", "c", true).unwrap();
    assert_eq!(reg.last_op, LastOp::None);
    assert_eq!(reg.tag, None);
    assert_eq!(r.qm().depth("req").unwrap(), 0);
}

#[test]
fn deregister_destroys_registration() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", true).unwrap();
    r.autocommit(|t| {
        r.qm().enqueue(
            t.id().raw(),
            &h,
            b"x",
            EnqueueOptions {
                tag: Some(b"t1".to_vec()),
                ..Default::default()
            },
        )
    })
    .unwrap();
    // What the registration retains goes with it.
    let retained = deq_tagged(&r, &h, b"t2");
    assert!(r.qm().read(retained).is_ok());
    r.qm().deregister(&h).unwrap();
    assert!(matches!(
        r.qm().read(retained),
        Err(QmError::NoSuchElement(_))
    ));
    assert_eq!(r.qm().retention_divergence().unwrap(), None);
    let (_, reg) = r.qm().register("q", "c", true).unwrap();
    assert_eq!(reg.tag, None, "re-register after deregister starts fresh");
    assert!(matches!(
        r.qm().deregister(&QueueHandle {
            queue: "q".into(),
            registrant: "ghost".into()
        }),
        Err(QmError::NotRegistered(_))
    ));
}

#[test]
fn kill_element_in_queue() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let eid = enq(&r, &h, b"cancel-me");
    assert!(r.qm().kill_element(eid).unwrap());
    assert_eq!(r.qm().depth("q").unwrap(), 0);
    // Killing again: nothing to do.
    assert!(!r.qm().kill_element(eid).unwrap());
}

#[test]
fn kill_element_keeps_index_and_storage_consistent() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"keep-1");
    let victim = enq(&r, &h, b"victim");
    enq(&r, &h, b"keep-2");

    assert!(r.qm().kill_element(victim).unwrap());
    // The ready index and a raw storage scan must agree after the kill: the
    // deleting system transaction commits before the index update
    // (regression for the extracted `kill_live_element` helper, pinned by
    // the durability-dominator rule).
    assert_eq!(r.qm().depth("q").unwrap(), 2);
    assert_eq!(r.qm().depth_scan("q").unwrap(), 2);
    // Survivors dequeue in order; the victim never surfaces.
    assert_eq!(deq(&r, &h).unwrap(), b"keep-1");
    assert_eq!(deq(&r, &h).unwrap(), b"keep-2");
    assert!(matches!(deq(&r, &h), Err(QmError::Empty(_))));
}

#[test]
fn kill_element_held_by_uncommitted_dequeuer_aborts_it() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let eid = enq(&r, &h, b"cancel-me");

    let txn = r.begin().unwrap();
    let e = r
        .qm()
        .dequeue(txn.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(e.eid, eid);
    // Cancel while the server transaction is mid-flight.
    assert!(r.qm().kill_element(eid).unwrap());
    // The transaction is poisoned: commit fails…
    assert!(txn.commit().is_err());
    // …and the element is gone, not requeued (and not in an error queue —
    // "q.errors" is created lazily and should not even exist here).
    assert_eq!(r.qm().depth("q").unwrap(), 0);
    match r.qm().depth("q.errors") {
        Err(QmError::NoSuchQueue(_)) => {}
        Ok(d) => assert_eq!(d, 0),
        Err(e) => panic!("unexpected: {e}"),
    }
}

#[test]
fn kill_element_too_late_after_commit() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let eid = enq(&r, &h, b"done");
    deq(&r, &h).unwrap();
    assert!(!r.qm().kill_element(eid).unwrap(), "already processed");
}

/// Two concurrent skip-locked dequeuers are *offered* distinct elements (the
/// second never touches the first's lock), and an aborted dequeue's element
/// comes back unclaimed — under its old key, or under a fresh one on a
/// requeue-at-back queue.
#[test]
fn skip_locked_dequeuers_get_distinct_elements() {
    for requeue_at_back in [false, true] {
        let r = repo();
        let mut meta = QueueMeta::with_defaults("q");
        meta.requeue_at_back_on_abort = requeue_at_back;
        r.qm().create_queue(meta).unwrap();
        let (h, _) = r.qm().register("q", "c", false).unwrap();
        for i in 0..2u8 {
            enq(&r, &h, &[i]);
        }
        let take = |t: &rrq_txn::Txn| {
            r.qm()
                .dequeue(t.id().raw(), &h, DequeueOptions::default())
                .unwrap()
        };
        // First dequeuer holds its element uncommitted; the second is handed
        // the other one without ever trying the held element's lock.
        let t1 = r.begin().unwrap();
        let e1 = take(&t1);
        let t2 = r.begin().unwrap();
        let e2 = take(&t2);
        assert_ne!(e1.eid, e2.eid);
        assert_eq!(r.qm().stats().lock_skips, 0);
        assert_eq!(r.qm().claimed_entries(), 2);
        // t1 aborts: its element is the only one a third dequeuer can get.
        t1.abort().unwrap();
        assert_eq!(r.qm().claimed_entries(), 1);
        let t3 = r.begin().unwrap();
        assert_eq!(take(&t3).eid, e1.eid);
        assert_eq!(r.qm().stats().lock_skips, 0);
        t2.commit().unwrap();
        t3.commit().unwrap();
        assert_eq!(r.qm().claimed_entries(), 0);
        assert_eq!(r.qm().depth("q").unwrap(), 0);
    }
}

/// Eight dequeuers drain one hot queue: every element goes to exactly one
/// consumer, nothing is lost, and the index ends clean.
#[test]
fn concurrent_drain_hands_every_element_to_exactly_one_dequeuer() {
    const ELEMENTS: usize = 400;
    let r = Arc::new(repo());
    r.create_queue_defaults("hot").unwrap();
    let (h, _) = r.qm().register("hot", "loader", false).unwrap();
    for k in 0..ELEMENTS {
        enq(&r, &h, format!("{k}").as_bytes());
    }
    let threads: Vec<_> = (0..8)
        .map(|d| {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                let (h, _) = r.qm().register("hot", &format!("d{d}"), false).unwrap();
                // Drain until the queue reports dry (every remaining element
                // claimed by a peer counts as dry, as a locked one always has).
                std::iter::from_fn(|| deq(&r, &h).ok()).collect::<Vec<_>>()
            })
        })
        .collect();
    let mut all: Vec<Vec<u8>> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    assert_eq!(all.len(), ELEMENTS, "lost or duplicated an element");
    all.sort();
    all.dedup();
    assert_eq!(all.len(), ELEMENTS, "an element went to two dequeuers");
    assert_eq!(r.qm().depth("hot").unwrap(), 0);
    assert_eq!(r.qm().claimed_entries(), 0);
    assert_eq!(r.qm().index_divergence().unwrap(), None);
    assert_eq!(r.qm().retention_divergence().unwrap(), None);
}

/// A claim must not outlive a failed abort disposition: when the abort
/// handler's system transaction cannot commit, the stored element is
/// unchanged and unlocked, so the next dequeuer must be offered it.
#[test]
fn failed_abort_disposition_leaves_the_element_dequeuable() {
    let disks = RepoDisks::new();
    let (r, _) = Repository::open("fail-abort", disks.clone()).unwrap();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let eid = enq(&r, &h, b"only");
    let t1 = r.begin().unwrap();
    r.qm()
        .dequeue(t1.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(r.qm().claimed_entries(), 1);

    // The device fails during the abort: the error surfaces from the queue
    // manager (`Txn::abort` itself is best-effort and reports nothing) ...
    disks.wal.fail();
    let aborted = rrq_txn::ResourceManager::abort(r.qm().as_ref(), t1.id());
    assert!(aborted.is_err(), "disposition could not be logged");
    t1.abort().unwrap(); // releases the element lock
    disks.wal.repair();

    // ... and the element, untouched in storage, goes to the next dequeuer.
    assert_eq!(r.qm().claimed_entries(), 0);
    let e = r
        .autocommit(|t| r.qm().dequeue(t.id().raw(), &h, DequeueOptions::default()))
        .unwrap();
    assert_eq!((e.eid, e.abort_count), (eid, 0));
    assert_eq!(r.qm().index_divergence().unwrap(), None);
    assert_eq!(r.qm().retention_divergence().unwrap(), None);
}

#[test]
fn strict_fifo_blocks_behind_head() {
    let r = Arc::new(Repository::create("fifo").unwrap());
    let mut meta = QueueMeta::with_defaults("q");
    meta.mode = OrderingMode::StrictFifo;
    r.qm().create_queue(meta).unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"head");
    enq(&r, &h, b"tail");

    let t1 = r.begin().unwrap();
    let e1 = r
        .qm()
        .dequeue(t1.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(e1.payload, b"head");

    // A second strict-FIFO dequeuer must NOT take "tail"; it waits for the
    // head's fate. When t1 aborts, the head returns and t2 gets it.
    let r2 = Arc::clone(&r);
    let h2 = h.clone();
    let waiter = thread::spawn(move || {
        r2.autocommit(|t| {
            r2.qm().dequeue(
                t.id().raw(),
                &h2,
                DequeueOptions {
                    block: Some(Duration::from_secs(5)),
                    ..Default::default()
                },
            )
        })
        .map(|e| e.payload)
    });
    thread::sleep(Duration::from_millis(50));
    t1.abort().unwrap();
    let got = waiter.join().unwrap().unwrap();
    assert_eq!(got, b"head", "strict FIFO preserved across the abort");
}

#[test]
fn skip_locked_allows_fifo_anomaly_the_paper_tolerates() {
    // §10: if dequeuer A takes the head, dequeuer B takes the second
    // element, A aborts and B commits — dequeues are not FIFO. That must be
    // *allowed* in SkipLocked mode.
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"first");
    enq(&r, &h, b"second");

    let ta = r.begin().unwrap();
    let ea = r
        .qm()
        .dequeue(ta.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(ea.payload, b"first");
    let tb = r.begin().unwrap();
    let eb = r
        .qm()
        .dequeue(tb.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(eb.payload, b"second");
    tb.commit().unwrap(); // second committed first
    ta.abort().unwrap(); // first returns to the queue
    let next = deq(&r, &h).unwrap();
    assert_eq!(next, b"first");
}

#[test]
fn blocking_dequeue_wakes_on_enqueue() {
    let r = Arc::new(repo());
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let r2 = Arc::clone(&r);
    let h2 = h.clone();
    let waiter = thread::spawn(move || {
        r2.autocommit(|t| {
            r2.qm().dequeue(
                t.id().raw(),
                &h2,
                DequeueOptions {
                    block: Some(Duration::from_secs(5)),
                    ..Default::default()
                },
            )
        })
        .map(|e| e.payload)
    });
    thread::sleep(Duration::from_millis(50));
    enq(&r, &h, b"wake");
    assert_eq!(waiter.join().unwrap().unwrap(), b"wake");
}

#[test]
fn blocking_dequeue_times_out_when_nothing_arrives() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let got = r.autocommit(|t| {
        r.qm().dequeue(
            t.id().raw(),
            &h,
            DequeueOptions {
                block: Some(Duration::from_millis(50)),
                ..Default::default()
            },
        )
    });
    assert!(matches!(got, Err(QmError::Empty(_))));
}

#[test]
fn predicate_dequeue_selects_matching_only() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    r.autocommit(|t| {
        let qm = r.qm();
        qm.enqueue(
            t.id().raw(),
            &h,
            b"small",
            EnqueueOptions {
                attrs: vec![("amount".into(), "10".into())],
                ..Default::default()
            },
        )?;
        qm.enqueue(
            t.id().raw(),
            &h,
            b"big",
            EnqueueOptions {
                attrs: vec![("amount".into(), "10000".into())],
                ..Default::default()
            },
        )
    })
    .unwrap();
    // "Highest dollar amount first" (§10): take amount ≥ 1000 first.
    let e = r
        .autocommit(|t| {
            r.qm().dequeue(
                t.id().raw(),
                &h,
                DequeueOptions {
                    predicate: Some(Predicate::AttrGe("amount".into(), 1000)),
                    ..Default::default()
                },
            )
        })
        .unwrap();
    assert_eq!(e.payload, b"big");
    assert_eq!(r.qm().depth("q").unwrap(), 1);
}

#[test]
fn queue_redirection_forwards_enqueues() {
    let r = repo();
    r.create_queue_defaults("front").unwrap();
    r.create_queue_defaults("back").unwrap();
    r.qm()
        .update_queue("front", |m| m.redirect_to = Some("back".into()))
        .unwrap();
    let (h, _) = r.qm().register("front", "c", false).unwrap();
    enq(&r, &h, b"fwd");
    assert_eq!(r.qm().depth("front").unwrap(), 0);
    assert_eq!(r.qm().depth("back").unwrap(), 1);
}

#[test]
fn redirect_cycle_detected() {
    let r = repo();
    r.create_queue_defaults("a").unwrap();
    r.create_queue_defaults("b").unwrap();
    r.qm()
        .update_queue("a", |m| m.redirect_to = Some("b".into()))
        .unwrap();
    r.qm()
        .update_queue("b", |m| m.redirect_to = Some("a".into()))
        .unwrap();
    let (h, _) = r.qm().register("a", "c", false).unwrap();
    let res = r.autocommit(|t| {
        r.qm()
            .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())
    });
    assert!(matches!(res, Err(QmError::RedirectCycle(_))));
}

#[test]
fn stopped_queue_rejects_operations() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"x");
    r.qm().update_queue("q", |m| m.started = false).unwrap();
    let res = r.autocommit(|t| {
        r.qm()
            .enqueue(t.id().raw(), &h, b"y", EnqueueOptions::default())
    });
    assert!(matches!(res, Err(QmError::QueueStopped(_))));
    assert!(matches!(deq(&r, &h), Err(QmError::QueueStopped(_))));
    r.qm().update_queue("q", |m| m.started = true).unwrap();
    assert_eq!(deq(&r, &h).unwrap(), b"x");
}

#[test]
fn alert_threshold_raises_alert() {
    let r = repo();
    let mut meta = QueueMeta::with_defaults("q");
    meta.alert_threshold = Some(3);
    r.qm().create_queue(meta).unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"1");
    enq(&r, &h, b"2");
    assert!(r.qm().take_alerts().is_empty());
    enq(&r, &h, b"3");
    let alerts = r.qm().take_alerts();
    assert_eq!(alerts, vec!["q".to_string()]);
    assert!(r.qm().take_alerts().is_empty(), "drained");
}

#[test]
fn trigger_fires_when_all_rids_present() {
    let r = repo();
    r.create_queue_defaults("join").unwrap();
    r.create_queue_defaults("continue").unwrap();
    r.qm()
        .set_trigger(Trigger::new(
            "t1",
            "join",
            vec!["a".into(), "b".into()],
            "continue",
            b"final-step".to_vec(),
        ))
        .unwrap();
    let (h, _) = r.qm().register("join", "c", false).unwrap();
    let enq_rid = |rid: &str| {
        r.autocommit(|t| {
            r.qm().enqueue(
                t.id().raw(),
                &h,
                b"branch-reply",
                EnqueueOptions {
                    attrs: vec![("rid".into(), rid.into())],
                    ..Default::default()
                },
            )
        })
        .unwrap()
    };
    enq_rid("a");
    assert_eq!(r.qm().depth("continue").unwrap(), 0, "join incomplete");
    enq_rid("b");
    assert_eq!(r.qm().depth("continue").unwrap(), 1, "trigger fired");
    // Fire-once: more arrivals don't re-fire.
    enq_rid("a");
    assert_eq!(r.qm().depth("continue").unwrap(), 1);
    assert_eq!(r.qm().stats().triggers_fired, 1);
}

#[test]
fn destroy_queue_removes_everything() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", true).unwrap();
    enq(&r, &h, b"retained");
    enq(&r, &h, b"x");
    deq_tagged(&r, &h, b"t");
    r.qm().destroy_queue("q").unwrap();
    assert!(matches!(
        r.qm().queue_meta("q"),
        Err(QmError::NoSuchQueue(_))
    ));
    // Not a row of the queue is left: no element, no index row pointing at
    // one, no registration and nothing one retained.
    for prefix in [&b"e/"[..], b"x/", b"d/", b"r/", b"m/"] {
        let rows = r.store().scan_prefix(None, prefix).unwrap();
        assert!(rows.is_empty(), "{:?}", String::from_utf8_lossy(prefix));
    }
    assert_eq!(r.qm().retention_divergence().unwrap(), None);
    assert!(matches!(
        r.qm().register("q", "c", true),
        Err(QmError::NoSuchQueue(_))
    ));
}

#[test]
fn enqueue_then_dequeue_same_transaction() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    let got = r
        .autocommit(|t| {
            r.qm()
                .enqueue(t.id().raw(), &h, b"self", EnqueueOptions::default())?;
            r.qm().dequeue(t.id().raw(), &h, DequeueOptions::default())
        })
        .unwrap();
    assert_eq!(got.payload, b"self");
    assert_eq!(r.qm().depth("q").unwrap(), 0);
}

/// A transaction's own uncommitted enqueue merges with the committed queue
/// in key order: a higher-priority own element wins over the committed head,
/// whose claim is released, and the committed head wins over a same-priority
/// own element enqueued after it.
#[test]
fn own_enqueue_merges_with_committed_elements_in_key_order() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    enq(&r, &h, b"committed");
    let t1 = r.begin().unwrap();
    let urgent = EnqueueOptions {
        priority: 9,
        ..EnqueueOptions::default()
    };
    let take = || {
        r.qm()
            .dequeue(t1.id().raw(), &h, DequeueOptions::default())
            .map(|e| e.payload)
    };
    r.qm()
        .enqueue(t1.id().raw(), &h, b"own-urgent", urgent)
        .unwrap();
    r.qm()
        .enqueue(t1.id().raw(), &h, b"own-late", EnqueueOptions::default())
        .unwrap();
    assert_eq!(take().unwrap(), b"own-urgent");
    assert_eq!(r.qm().claimed_entries(), 0, "unused claim released");
    assert_eq!(take().unwrap(), b"committed");
    assert_eq!(r.qm().claimed_entries(), 1);
    assert_eq!(take().unwrap(), b"own-late");
    assert!(matches!(take(), Err(QmError::Empty(_))));
    t1.commit().unwrap();
    assert_eq!(r.qm().claimed_entries(), 0);
    assert_eq!(r.qm().index_divergence().unwrap(), None);
    assert_eq!(r.qm().retention_divergence().unwrap(), None);
}

#[test]
fn depth_and_list_queues() {
    let r = repo();
    r.create_queue_defaults("a").unwrap();
    r.create_queue_defaults("b").unwrap();
    let (h, _) = r.qm().register("a", "c", false).unwrap();
    enq(&r, &h, b"1");
    enq(&r, &h, b"2");
    assert_eq!(r.qm().depth("a").unwrap(), 2);
    assert_eq!(r.qm().depth("b").unwrap(), 0);
    let qs = r.qm().list_queues().unwrap();
    assert!(qs.contains(&"a".to_string()) && qs.contains(&"b".to_string()));
    assert!(matches!(
        r.qm().depth("missing"),
        Err(QmError::NoSuchQueue(_))
    ));
}

#[test]
fn dequeue_batch_takes_up_to_max_atomically() {
    let r = repo();
    r.create_queue_defaults("q").unwrap();
    let (h, _) = r.qm().register("q", "c", false).unwrap();
    for i in 0..7u8 {
        enq(&r, &h, &[i]);
    }
    // Take a batch of 5 in one transaction.
    let batch = r
        .autocommit(|t| {
            r.qm()
                .dequeue_batch(t.id().raw(), &h, 5, &DequeueOptions::default())
        })
        .unwrap();
    assert_eq!(batch.len(), 5);
    assert_eq!(
        batch.iter().map(|e| e.payload[0]).collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4]
    );
    assert_eq!(r.qm().depth("q").unwrap(), 2);
    // A batch bigger than the queue drains it without blocking.
    let rest = r
        .autocommit(|t| {
            r.qm()
                .dequeue_batch(t.id().raw(), &h, 100, &DequeueOptions::default())
        })
        .unwrap();
    assert_eq!(rest.len(), 2);

    // An aborted batch returns every element.
    for i in 0..3u8 {
        enq(&r, &h, &[10 + i]);
    }
    let txn = r.begin().unwrap();
    let b = r
        .qm()
        .dequeue_batch(txn.id().raw(), &h, 3, &DequeueOptions::default())
        .unwrap();
    assert_eq!(b.len(), 3);
    txn.abort().unwrap();
    assert_eq!(r.qm().depth("q").unwrap(), 3, "batch abort is atomic");
}

#[test]
fn queue_set_takes_from_any_member() {
    let r = repo();
    r.create_queue_defaults("a").unwrap();
    r.create_queue_defaults("b").unwrap();
    let (ha, _) = r.qm().register("a", "c", false).unwrap();
    let (hb, _) = r.qm().register("b", "c", false).unwrap();
    enq(&r, &hb, b"from-b");
    let set = vec![ha.clone(), hb.clone()];
    let (idx, e) = r
        .autocommit(|t| {
            r.qm()
                .dequeue_from_set(t.id().raw(), &set, DequeueOptions::default())
        })
        .unwrap();
    assert_eq!(idx, 1);
    assert_eq!(e.payload, b"from-b");
    // Empty set view reports empty.
    let res = r.autocommit(|t| {
        r.qm()
            .dequeue_from_set(t.id().raw(), &set, DequeueOptions::default())
    });
    assert!(matches!(res, Err(QmError::Empty(_))));
}

#[test]
fn queue_set_blocks_until_any_member_gains() {
    let r = Arc::new(repo());
    r.create_queue_defaults("a").unwrap();
    r.create_queue_defaults("b").unwrap();
    let (ha, _) = r.qm().register("a", "c", false).unwrap();
    let (hb, _) = r.qm().register("b", "c", false).unwrap();
    let set = vec![ha.clone(), hb.clone()];
    let r2 = Arc::clone(&r);
    let waiter = thread::spawn(move || {
        r2.autocommit(|t| {
            r2.qm().dequeue_from_set(
                t.id().raw(),
                &set,
                DequeueOptions {
                    block: Some(Duration::from_secs(5)),
                    ..Default::default()
                },
            )
        })
    });
    thread::sleep(Duration::from_millis(60));
    enq(&r, &hb, b"late-b");
    let (idx, e) = waiter.join().unwrap().unwrap();
    assert_eq!(idx, 1);
    assert_eq!(e.payload, b"late-b");
}

#[test]
fn many_concurrent_producers_and_consumers_lose_nothing() {
    let r = Arc::new(repo());
    r.create_queue_defaults("q").unwrap();
    let n_producers = 4;
    let per_producer = 50;
    let mut handles = Vec::new();
    for p in 0..n_producers {
        let r = Arc::clone(&r);
        handles.push(thread::spawn(move || {
            let (h, _) = r.qm().register("q", &format!("p{p}"), false).unwrap();
            for i in 0..per_producer {
                let payload = format!("{p}/{i}");
                r.autocommit(|t| {
                    r.qm().enqueue(
                        t.id().raw(),
                        &h,
                        payload.as_bytes(),
                        EnqueueOptions::default(),
                    )
                })
                .unwrap();
            }
        }));
    }
    let mut consumers = Vec::new();
    for c in 0..4 {
        let r = Arc::clone(&r);
        consumers.push(thread::spawn(move || {
            let (h, _) = r.qm().register("q", &format!("s{c}"), false).unwrap();
            let mut got = Vec::new();
            loop {
                let res = r.autocommit(|t| {
                    r.qm().dequeue(
                        t.id().raw(),
                        &h,
                        DequeueOptions {
                            block: Some(Duration::from_millis(300)),
                            ..Default::default()
                        },
                    )
                });
                match res {
                    Ok(e) => got.push(String::from_utf8(e.payload).unwrap()),
                    Err(QmError::Empty(_)) => return got,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut all: Vec<String> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        n_producers * per_producer,
        "every element consumed exactly once"
    );
}
