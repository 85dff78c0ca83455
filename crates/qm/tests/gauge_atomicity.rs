//! Regression: the abort-disposition fix-up used to remove and re-insert an
//! element in two separate index critical sections, so a concurrent
//! observer (the `depth()` gauge, or the index-divergence hook) could catch
//! the element in neither queue. [`QueueIndex::fixup`] now applies both
//! halves in one critical section; these tests hammer that path while an
//! observer asserts the invariants at every observation. The gauge belongs
//! to one repository's handle: a sibling repository's traffic in the same
//! process never moves it. A reopen, which installs the rebuilt index in
//! one step, lands the gauge on exactly the survivors.

use rrq_obs::Obs;
use rrq_qm::element::Eid;
use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::qindex::QueueIndex;
use rrq_qm::repository::{RepoDisks, Repository};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Direct hammer on the index: one element shuttled between two queues via
/// `fixup`, with observers asserting (a) the element is always in exactly
/// one queue and (b) the depth gauge always equals the index total.
#[test]
fn fixup_moves_elements_atomically_under_concurrent_observation() {
    let obs = Obs::default();
    obs.start();
    let ix = Arc::new(QueueIndex::with_obs(obs.clone()));
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
        obs.snapshot().gauge("qm.queue.depth"),
        0,
        "dropping the index retires its whole gauge contribution"
    );
}

/// End to end through the queue manager: aborted dequeues drive the real
/// disposition fix-up (requeue, and eventually the error-queue move) while
/// an observer thread checks the gauge against the index total.
#[test]
fn abort_dispositions_keep_gauge_and_index_in_lockstep() {
    let repo = Arc::new(Repository::create("gauge-atomicity").unwrap());
    repo.obs().start();
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
    // law-A arithmetic holds for the repository's counters.
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
    let snap = repo.obs().snapshot();
    let flow = snap.counter("qm.enqueue.committed") as i64
        - snap.counter("qm.dequeue.committed") as i64
        - snap.counter("qm.element.dropped") as i64;
    let (total, gauge) = repo.qm().depth_accounting();
    assert_eq!(flow, gauge);
    assert_eq!(total as i64, gauge);
}

/// A reopen builds the ready index whole. Three queues — `a`, whose keys at
/// priorities 200 and 0 sort on both sides of `a/b`'s, `a/b` and `c` — and
/// `a`'s error queue, half the elements behind a checkpoint and half in the
/// log tail. After the reopen the index equals the full-decode scan, the
/// gauge equals its total, and nothing is claimed.
#[test]
fn a_reopened_index_equals_the_scan_with_the_gauge_on_its_total() {
    let obs = Obs::default();
    obs.start();
    let disks = RepoDisks::new();
    let open = || {
        Repository::open_with("reopen-index", disks.clone(), obs.clone())
            .unwrap()
            .0
    };
    let repo = open();
    let mut a = QueueMeta::with_defaults("a");
    a.retry_limit = 1;
    repo.qm().create_queue(a).unwrap();
    let handles: Vec<_> = ["a", "a/b", "c"]
        .into_iter()
        .map(|q| {
            if q != "a" {
                repo.create_queue_defaults(q).unwrap();
            }
            repo.qm().register(q, "c", false).unwrap().0
        })
        .collect();
    let mut n = 0;
    for round in 0..2 {
        for h in &handles {
            for priority in [0, 200, 0, 200] {
                let opts = EnqueueOptions {
                    priority,
                    ..Default::default()
                };
                repo.autocommit(|t| repo.qm().enqueue(t.id().raw(), h, &[n as u8], opts))
                    .unwrap();
                n += 1;
            }
        }
        if round == 0 {
            repo.checkpoint().unwrap();
        }
    }
    // One abort exiles `a`'s head to `a.errors`.
    let txn = repo.begin().unwrap();
    let got = repo
        .qm()
        .dequeue(txn.id().raw(), &handles[0], DequeueOptions::default());
    assert!(got.is_ok());
    txn.abort().unwrap();
    assert_eq!(repo.qm().depth("a.errors").unwrap(), 1);

    disks.crash();
    drop(repo); // retires the old incarnation's gauge contribution
    let repo = open();
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
    assert_eq!(repo.qm().depth_accounting(), (n, n as i64));
    assert_eq!(repo.qm().claimed_entries(), 0);
    let depths: Vec<(String, usize)> = repo
        .qm()
        .index_snapshot()
        .into_iter()
        .map(|(q, entries)| (q, entries.len()))
        .collect();
    let want = [("a", 7), ("a.errors", 1), ("a/b", 8), ("c", 8)];
    assert_eq!(depths, want.map(|(q, d)| (q.to_string(), d)));
}

/// Two repositories in one process: one started, the other enqueueing on a
/// dormant handle at the same time. The started one's gauge and counters
/// hold its own traffic and nothing else.
#[test]
fn a_started_repository_counts_only_its_own_traffic() {
    let enqueue = |repo: &Repository, n: u32| {
        repo.create_queue_defaults("q").unwrap();
        let (h, _) = repo.qm().register("q", "c", false).unwrap();
        for i in 0..n {
            repo.autocommit(|t| {
                repo.qm().enqueue(
                    t.id().raw(),
                    &h,
                    &i.to_le_bytes(),
                    EnqueueOptions::default(),
                )
            })
            .unwrap();
        }
    };
    let started = Repository::create("gauge-started").unwrap();
    started.obs().start();
    let dormant = Repository::create("gauge-dormant").unwrap();
    std::thread::scope(|s| {
        s.spawn(|| enqueue(&dormant, 1_000));
        s.spawn(|| enqueue(&started, 10));
    });
    let (total, gauge) = started.qm().depth_accounting();
    assert_eq!(
        (total, gauge),
        (10, 10),
        "the gauge holds this repository's elements"
    );
    assert_eq!(started.obs().snapshot().counter("qm.enqueue.committed"), 10);
    assert_eq!(dormant.qm().depth("q").unwrap(), 1_000);
    assert_eq!(
        dormant.qm().depth_accounting(),
        (1_000, 0),
        "dormant: no gauge"
    );
}
