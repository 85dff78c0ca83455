//! Regression: the abort-disposition fix-up used to remove and re-insert an
//! element in two separate index critical sections, so a concurrent
//! observer (the `depth()` gauge, or the index-divergence hook) could catch
//! the element in neither queue. [`QueueIndex::fixup`] now applies both
//! halves in one critical section; these tests hammer that path while an
//! observer asserts the invariants at every observation.

use rrq_obs::Session;
use rrq_qm::element::Eid;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::qindex::QueueIndex;
use rrq_qm::repository::Repository;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Direct hammer on the index: one element shuttled between two queues via
/// `fixup`, with observers asserting (a) the element is always in exactly
/// one queue and (b) the depth gauge always equals the index total.
#[test]
fn fixup_moves_elements_atomically_under_concurrent_observation() {
    let session = Session::start();
    let ix = Arc::new(QueueIndex::new());
    let key = b"elem".to_vec();
    ix.insert("a", key.clone(), Eid(1));

    let stop = Arc::new(AtomicBool::new(false));
    let mover = {
        let ix = Arc::clone(&ix);
        let stop = Arc::clone(&stop);
        let key = key.clone();
        std::thread::spawn(move || {
            let mut here = "a";
            while !stop.load(Ordering::Relaxed) {
                let there = if here == "a" { "b" } else { "a" };
                assert!(ix.fixup(Some((here, &key)), Some((there, key.clone(), Eid(1)))));
                here = there;
            }
        })
    };

    for _ in 0..20_000 {
        let snap = ix.snapshot();
        let total: usize = snap.values().map(Vec::len).sum();
        assert_eq!(total, 1, "element must never be caught mid-move: {snap:?}");
        let (total, gauge) = ix.depth_accounting();
        assert_eq!(
            total as i64, gauge,
            "gauge and index total diverged mid-fixup"
        );
    }
    stop.store(true, Ordering::Relaxed);
    mover.join().unwrap();
    drop(ix);
    assert_eq!(
        session.snapshot().gauge("qm.queue.depth"),
        0,
        "dropping the index retires its whole gauge contribution"
    );
}

/// End to end through the queue manager: aborted dequeues drive the real
/// disposition fix-up (requeue, and eventually the error-queue move) while
/// an observer thread checks the gauge against the index total.
#[test]
fn abort_dispositions_keep_gauge_and_index_in_lockstep() {
    let session = Session::start();
    let repo = Arc::new(Repository::create("gauge-atomicity").unwrap());
    repo.create_queue_defaults("q").unwrap();
    let (h, _) = repo.qm().register("q", "c", false).unwrap();
    for i in 0..8u8 {
        repo.autocommit(|t| {
            repo.qm()
                .enqueue(t.id().raw(), &h, &[i], EnqueueOptions::default())
        })
        .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (observing_tx, observing) = std::sync::mpsc::channel();
    let observer = {
        let repo = Arc::clone(&repo);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (total, gauge) = repo.qm().depth_accounting();
                assert_eq!(total as i64, gauge, "gauge fell out of the index mutex");
                checks += 1;
                if checks == 1 {
                    observing_tx.send(()).unwrap();
                }
            }
            checks
        })
    };
    // The aborts below take a few hundred microseconds in all: start them
    // only once the observer is checking.
    observing.recv().unwrap();

    // Abort every dequeue: each abort runs a disposition fix-up (requeue /
    // rotate / error-queue move once the retry limit is hit).
    for _ in 0..100 {
        let txn = repo.begin().unwrap();
        let got = repo
            .qm()
            .dequeue(txn.id().raw(), &h, DequeueOptions::default());
        txn.abort().unwrap();
        if got.is_err() {
            break; // empty: everything has moved to q.errors
        }
        // Give the observer scheduling room on single-core machines; the
        // race window it probes is unaffected.
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let checks = observer.join().unwrap();
    assert!(checks > 0, "observer never ran");

    // Quiescent: the index and a fresh storage scan agree exactly, and the
    // law-A arithmetic holds for the session's counters.
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
    let snap = session.snapshot();
    let flow = snap.counter("qm.enqueue.committed") as i64
        - snap.counter("qm.dequeue.committed") as i64
        - snap.counter("qm.element.dropped") as i64;
    let (total, gauge) = repo.qm().depth_accounting();
    assert_eq!(flow, gauge);
    assert_eq!(total as i64, gauge);
}
