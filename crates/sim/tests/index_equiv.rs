//! Index-vs-storage equivalence under explorer-generated crash schedules.
//!
//! PR 3's ready index is an in-memory mirror of the committed element
//! keyspace; a crash throws the mirror away and recovery rebuilds it from a
//! storage scan. The property this file checks: **after any crash schedule
//! drawn from the explorer's script generator, the rebuilt index equals a
//! fresh full scan** — same queues, same element keys in the same order,
//! same eids — and every indexed element is unlocked and unclaimed (dequeue
//! locks and claim marks are in-memory, so a restart must leave none behind).
//! Along the way every dequeue of the (sequential) workload is checked
//! against the kept reference: it returns the head of `index_from_scan()`
//! for its queue.
//!
//! The workload is a deterministic function of the script seed: enqueues
//! with mixed priorities across queues with different abort policies
//! (default error-queue moves, requeue-at-back, tight retry limits),
//! committed dequeues, aborted dequeues, and kills — every path that
//! mutates the index. The crash points and torn-WAL modes come from the
//! generated script's `ServerCrash` events, exactly as the explorer would
//! inject them.

use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::{Element, QmResult};
use rrq_sim::script::{FaultEvent, FaultScript};
use rrq_workload::arrivals::SplitMix;

const QUEUES: [&str; 3] = ["req", "back", "tight"];

fn create_queues(repo: &Repository) {
    let mut req = QueueMeta::with_defaults("req");
    req.retry_limit = 3;
    let mut back = QueueMeta::with_defaults("back");
    back.requeue_at_back_on_abort = true;
    let mut tight = QueueMeta::with_defaults("tight");
    tight.retry_limit = 1; // first abort moves straight to the error queue
    for meta in [req, back, tight] {
        let _ = repo.qm().create_queue(meta);
    }
}

/// Assert the rebuilt (or live) index matches a fresh storage scan and that
/// no indexed element is left locked.
fn assert_equivalent(repo: &Repository, ctx: &str) {
    let divergence = repo.qm().index_divergence().unwrap();
    assert_eq!(divergence, None, "{ctx}: index diverged from storage");
    let divergence = repo.qm().retention_divergence().unwrap();
    assert_eq!(
        divergence, None,
        "{ctx}: retained rows or index rows astray"
    );
    for q in QUEUES {
        let by_index = repo.qm().depth(q).unwrap();
        let by_scan = repo.qm().depth_scan(q).unwrap();
        assert_eq!(by_index, by_scan, "{ctx}: depth mismatch on {q:?}");
    }
    // Every indexed element must be free for the taking: dequeue locks and
    // claim marks are volatile, so nothing may survive a restart, and at a
    // quiescent point nothing should be held either.
    assert_eq!(
        repo.qm().claimed_entries(),
        0,
        "{ctx}: index entry left claimed"
    );
    for (queue, entries) in repo.qm().index_snapshot() {
        for (ekey, eid) in entries {
            assert!(
                repo.qm().element_lock_free(&queue, &ekey),
                "{ctx}: element {} in {queue:?} left locked",
                eid.raw()
            );
        }
    }
}

/// Dequeue under `txn` and check the result against the storage-scan oracle:
/// with no concurrent dequeuer, the element returned is the scan's head for
/// the queue, and the dequeue fails only when the scan finds the queue empty.
fn dequeue_head(repo: &Repository, txn: u64, h: &QueueHandle) -> QmResult<Element> {
    let scan = repo.qm().index_from_scan().unwrap();
    let head = scan.get(&h.queue).and_then(|es| es.first()).map(|e| e.1);
    let got = repo.qm().dequeue(txn, h, DequeueOptions::default());
    assert_eq!(
        got.as_ref().ok().map(|e| e.eid),
        head,
        "dequeue on {:?} did not return the scan's head",
        h.queue
    );
    got
}

/// One deterministic workload step against `repo`.
fn step(repo: &Repository, rng: &mut SplitMix, serial: u64) {
    let queue = QUEUES[(rng.next_u64() % QUEUES.len() as u64) as usize];
    let (h, _) = repo.qm().register(queue, "driver", false).unwrap();
    match rng.next_u64() % 5 {
        // Enqueue a couple of elements with mixed priorities.
        0 | 1 => {
            let n = 1 + rng.next_u64() % 3;
            for i in 0..n {
                let prio = (rng.next_u64() % 3) as u8;
                repo.autocommit(|t| {
                    repo.qm().enqueue(
                        t.id().raw(),
                        &h,
                        format!("payload-{serial}-{i}").as_bytes(),
                        EnqueueOptions {
                            priority: prio,
                            ..EnqueueOptions::default()
                        },
                    )
                })
                .unwrap();
            }
        }
        // Committed dequeue.
        2 => {
            let _ = repo.autocommit(|t| dequeue_head(repo, t.id().raw(), &h));
        }
        // Aborted dequeue: exercises return / requeue-at-back / error-queue
        // moves depending on the queue's policy and the element's history.
        3 => {
            if let Ok(txn) = repo.begin() {
                let _ = dequeue_head(repo, txn.id().raw(), &h);
                let _ = txn.abort();
            }
        }
        // Kill the element at the queue's head, if any.
        _ => {
            if let Some((_, entries)) = repo
                .qm()
                .index_snapshot()
                .into_iter()
                .find(|(q, _)| q == queue)
            {
                if let Some((_, eid)) = entries.first() {
                    let _ = repo.qm().kill_element(*eid);
                }
            }
        }
    }
}

/// The property, over one generated script.
fn run_schedule(seed: u64) {
    let script = FaultScript::generate(seed);
    let crashes: Vec<&FaultEvent> = script
        .events
        .iter()
        .filter(|e| matches!(e, FaultEvent::ServerCrash { .. }))
        .collect();

    let disks = RepoDisks::new();
    let mut repo = {
        let (r, _) = Repository::open("equiv", disks.clone()).unwrap();
        r
    };
    create_queues(&repo);
    let mut rng = SplitMix::new(seed ^ 0x9E37_79B9_7F4A_7C15);

    for serial in 1..=script.n_requests {
        step(&repo, &mut rng, serial);
        for ev in &crashes {
            let FaultEvent::ServerCrash {
                serial: es, torn, ..
            } = ev
            else {
                continue;
            };
            if *es == serial {
                drop(repo);
                disks.crash_with(*torn);
                let (r, _) = Repository::open("equiv", disks.clone()).unwrap();
                repo = r;
                create_queues(&repo); // queues may predate a lost commit
                assert_equivalent(&repo, &format!("seed {seed} after crash at {serial}"));
            }
        }
        assert_equivalent(&repo, &format!("seed {seed} after serial {serial}"));
    }

    // Final restart even if the script had no server crash: the rebuild
    // path must agree with the scan regardless.
    drop(repo);
    disks.crash();
    let (repo, _) = Repository::open("equiv", disks).unwrap();
    assert_equivalent(&repo, &format!("seed {seed} final restart"));
}

#[test]
fn rebuilt_index_matches_scan_across_generated_crash_schedules() {
    for seed in 0..40 {
        run_schedule(seed);
    }
}

/// PR 5 regression for the per-queue ready lists: crash the server while a
/// dequeue is in flight on each of two distinct queues at once, then check
/// every rebuilt per-queue index against a fresh scan. With the index now
/// locked per queue, recovery must still see one coherent whole — both
/// in-flight dequeues rolled back, no element left locked on either queue.
#[test]
fn crash_mid_dequeue_on_two_queues_rebuilds_each_queue_index() {
    let disks = RepoDisks::new();
    {
        let (repo, _) = Repository::open("two-q", disks.clone()).unwrap();
        create_queues(&repo);
        let (hr, _) = repo.qm().register("req", "c", false).unwrap();
        let (hb, _) = repo.qm().register("back", "c", false).unwrap();
        for k in 0..4u64 {
            repo.autocommit(|t| {
                let txn = t.id().raw();
                repo.qm().enqueue(
                    txn,
                    &hr,
                    format!("r{k}").as_bytes(),
                    EnqueueOptions::default(),
                )?;
                repo.qm().enqueue(
                    txn,
                    &hb,
                    format!("b{k}").as_bytes(),
                    EnqueueOptions::default(),
                )
            })
            .unwrap();
        }
        // One dequeue mid-flight per queue, in two separate transactions,
        // both unresolved at crash time.
        let t1 = repo.begin().unwrap();
        repo.qm()
            .dequeue(t1.id().raw(), &hr, DequeueOptions::default())
            .unwrap();
        let t2 = repo.begin().unwrap();
        repo.qm()
            .dequeue(t2.id().raw(), &hb, DequeueOptions::default())
            .unwrap();
        std::mem::forget(t1);
        std::mem::forget(t2);
        disks.crash();
    }
    let (repo, _) = Repository::open("two-q", disks).unwrap();
    assert_equivalent(&repo, "two-queue mid-dequeue crash");
    for q in ["req", "back"] {
        assert_eq!(
            repo.qm().depth(q).unwrap(),
            4,
            "in-flight dequeue on {q:?} rolled back on restart"
        );
    }
    // Both queues must be fully servable after the rebuild.
    let (hr, _) = repo.qm().register("req", "s", false).unwrap();
    let (hb, _) = repo.qm().register("back", "s", false).unwrap();
    for h in [hr, hb] {
        for _ in 0..4 {
            repo.autocommit(|t| {
                repo.qm()
                    .dequeue(t.id().raw(), &h, DequeueOptions::default())
            })
            .unwrap();
        }
    }
    assert_equivalent(&repo, "two-queue drain");
}

#[test]
fn torn_tail_modes_each_rebuild_equivalently() {
    use rrq_storage::disk::TornWriteMode;
    for (i, mode) in [
        None,
        Some(TornWriteMode::Midway),
        Some(TornWriteMode::FullLengthCorrupt),
        Some(TornWriteMode::HeaderOnly),
    ]
    .into_iter()
    .enumerate()
    {
        let disks = RepoDisks::new();
        {
            let (repo, _) = Repository::open("torn", disks.clone()).unwrap();
            create_queues(&repo);
            let (h, _) = repo.qm().register("req", "c", false).unwrap();
            for k in 0..6u64 {
                repo.autocommit(|t| {
                    repo.qm().enqueue(
                        t.id().raw(),
                        &h,
                        format!("e{k}").as_bytes(),
                        EnqueueOptions {
                            priority: (k % 3) as u8,
                            ..EnqueueOptions::default()
                        },
                    )
                })
                .unwrap();
            }
            // One dequeue left uncommitted at crash time: recovery must not
            // let it leak out of (or into) the index.
            let txn = repo.begin().unwrap();
            let _ = repo
                .qm()
                .dequeue(txn.id().raw(), &h, DequeueOptions::default());
            std::mem::forget(txn);
            disks.crash_with(mode);
        }
        let (repo, _) = Repository::open("torn", disks).unwrap();
        assert_equivalent(&repo, &format!("torn mode #{i}"));
        assert_eq!(
            repo.qm().depth("req").unwrap(),
            6,
            "uncommitted dequeue rolled back on restart (mode #{i})"
        );
    }
}
