//! The queue catalog keeps every queue's metadata decoded in memory, and two
//! counters stand in for scans of the trigger and kill-tombstone tables.
//! These tests pin what a reader of the *store* would have seen: an update
//! is visible to the first operation that starts after `update_queue`
//! returns, a queue destroyed and made again is the new queue, a reopened
//! repository starts from what is on disk, and a trigger or a tombstone
//! written at any point in a run is still found.

use rrq_qm::element::Eid;
use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions, QueueHandle};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::trigger::Trigger;
use rrq_qm::QmError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn try_enq(repo: &Repository, h: &QueueHandle, payload: &[u8]) -> Result<Eid, QmError> {
    repo.autocommit(|t| {
        repo.qm()
            .enqueue(t.id().raw(), h, payload, EnqueueOptions::default())
    })
}

fn enq(repo: &Repository, h: &QueueHandle, payload: &[u8]) -> Eid {
    try_enq(repo, h, payload).unwrap()
}

fn deq(repo: &Repository, h: &QueueHandle) -> Result<Vec<u8>, QmError> {
    repo.autocommit(|t| {
        repo.qm()
            .dequeue(t.id().raw(), h, DequeueOptions::default())
            .map(|e| e.payload)
    })
}

fn handle(repo: &Repository, queue: &str) -> QueueHandle {
    repo.qm().register(queue, "c", false).unwrap().0
}

#[test]
fn an_update_is_seen_by_the_first_operation_after_it_returns() {
    let r = Repository::create("cat").unwrap();
    r.create_queue_defaults("q").unwrap();
    r.create_queue_defaults("other").unwrap();
    let h = handle(&r, "q");
    // Warm the catalog on every path that reads it.
    enq(&r, &h, b"1");
    assert_eq!(r.qm().depth("q").unwrap(), 1);

    // Stop / start.
    r.qm().update_queue("q", |m| m.started = false).unwrap();
    assert!(matches!(
        try_enq(&r, &h, b"x"),
        Err(QmError::QueueStopped(_))
    ));
    assert!(matches!(deq(&r, &h), Err(QmError::QueueStopped(_))));
    r.qm().update_queue("q", |m| m.started = true).unwrap();
    enq(&r, &h, b"2");

    // Redirect, and its removal.
    r.qm()
        .update_queue("q", |m| m.redirect_to = Some("other".into()))
        .unwrap();
    enq(&r, &h, b"3");
    assert_eq!(r.qm().depth("other").unwrap(), 1);
    assert_eq!(r.qm().depth("q").unwrap(), 2);
    r.qm().update_queue("q", |m| m.redirect_to = None).unwrap();
    enq(&r, &h, b"4");
    assert_eq!(r.qm().depth("q").unwrap(), 3);

    // A threshold set on a queue that is already in use.
    r.qm()
        .update_queue("q", |m| m.alert_threshold = Some(4))
        .unwrap();
    assert!(r.qm().take_alerts().is_empty());
    enq(&r, &h, b"5");
    assert_eq!(r.qm().take_alerts(), vec!["q".to_string()]);
    r.qm()
        .update_queue("q", |m| m.alert_threshold = None)
        .unwrap();
    assert_eq!(deq(&r, &h).unwrap(), b"1");
    enq(&r, &h, b"6");
    assert!(r.qm().take_alerts().is_empty());
    assert_eq!(r.qm().queue_meta("q").unwrap().alert_threshold, None);
}

#[test]
fn an_alert_is_raised_per_crossing_not_per_commit() {
    let r = Repository::create("cat-alerts").unwrap();
    let mut meta = QueueMeta::with_defaults("q");
    meta.alert_threshold = Some(3);
    r.qm().create_queue(meta).unwrap();
    let h = handle(&r, "q");
    // Nobody drains the alerts while a thousand commits land at or above
    // the threshold: one crossing, one pending name.
    for i in 0..1000u32 {
        enq(&r, &h, &i.to_be_bytes());
    }
    assert_eq!(r.qm().stats().alerts, 1);
    assert_eq!(r.qm().take_alerts(), vec!["q".to_string()]);
    assert!(r.qm().take_alerts().is_empty());

    // Drain below the threshold and cross it again.
    for _ in 0..998 {
        deq(&r, &h).unwrap();
    }
    assert_eq!(r.qm().depth("q").unwrap(), 2);
    enq(&r, &h, b"again");
    assert_eq!(r.qm().stats().alerts, 2);
    assert_eq!(r.qm().take_alerts(), vec!["q".to_string()]);

    // Two crossings between drains are still one pending name; one commit
    // that jumps from below to above is one crossing.
    deq(&r, &h).unwrap();
    deq(&r, &h).unwrap();
    r.autocommit(|t| {
        for p in [b"a", b"b", b"c"] {
            r.qm()
                .enqueue(t.id().raw(), &h, p, EnqueueOptions::default())?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(r.qm().stats().alerts, 3);
    for _ in 0..3 {
        deq(&r, &h).unwrap();
    }
    for p in [b"d", b"e"] {
        enq(&r, &h, p);
    }
    assert_eq!(r.qm().stats().alerts, 4);
    assert_eq!(r.qm().take_alerts(), vec!["q".to_string()]);
}

#[test]
fn a_destroyed_queue_is_gone_and_its_successor_is_new() {
    let r = Repository::create("cat-destroy").unwrap();
    let mut meta = QueueMeta::with_defaults("q");
    meta.retry_limit = 9;
    r.qm().create_queue(meta).unwrap();
    let h = handle(&r, "q");
    enq(&r, &h, b"old");
    r.qm().destroy_queue("q").unwrap();
    assert!(matches!(r.qm().depth("q"), Err(QmError::NoSuchQueue(_))));
    assert!(matches!(
        try_enq(&r, &h, b"x"),
        Err(QmError::NoSuchQueue(_))
    ));
    assert!(matches!(deq(&r, &h), Err(QmError::NoSuchQueue(_))));

    let mut meta = QueueMeta::with_defaults("q");
    meta.retry_limit = 2;
    meta.started = false;
    r.qm().create_queue(meta).unwrap();
    assert_eq!(r.qm().queue_meta("q").unwrap().retry_limit, 2);
    assert!(matches!(
        try_enq(&r, &h, b"x"),
        Err(QmError::QueueStopped(_))
    ));
    r.qm().update_queue("q", |m| m.started = true).unwrap();
    let h = handle(&r, "q");
    enq(&r, &h, b"new");
    assert_eq!(r.qm().depth("q").unwrap(), 1);
    assert_eq!(deq(&r, &h).unwrap(), b"new");
}

#[test]
fn an_error_queue_made_on_first_use_is_found_afterwards() {
    let r = Repository::create("cat-errq").unwrap();
    let mut meta = QueueMeta::with_defaults("q");
    meta.retry_limit = 1;
    r.qm().create_queue(meta).unwrap();
    let h = handle(&r, "q");
    // Looked up, and found missing, before it exists.
    assert!(matches!(
        r.qm().depth("q.errors"),
        Err(QmError::NoSuchQueue(_))
    ));
    for payload in [b"p1", b"p2"] {
        enq(&r, &h, payload);
        let txn = r.begin().unwrap();
        r.qm()
            .dequeue(txn.id().raw(), &h, DequeueOptions::default())
            .unwrap();
        txn.abort().unwrap();
    }
    assert_eq!(r.qm().depth("q.errors").unwrap(), 2);
    assert_eq!(r.qm().queue_meta("q.errors").unwrap().retry_limit, 0);
    let he = handle(&r, "q.errors");
    assert_eq!(deq(&r, &he).unwrap(), b"p1");
}

#[test]
fn a_reopened_repository_reads_its_catalog_and_counts_from_disk() {
    let disks = RepoDisks::new();
    let held;
    {
        let (r, _) = Repository::open("cat-crash", disks.clone()).unwrap();
        r.create_queue_defaults("q").unwrap();
        r.create_queue_defaults("join").unwrap();
        r.create_queue_defaults("next").unwrap();
        let h = handle(&r, "q");
        enq(&r, &h, b"1");
        r.qm()
            .update_queue("q", |m| {
                m.started = false;
                m.alert_threshold = Some(7);
            })
            .unwrap();
        r.qm()
            .set_trigger(Trigger::new(
                "t",
                "join",
                vec!["a".into()],
                "next",
                b"go".to_vec(),
            ))
            .unwrap();
        // A kill the crash interrupts: the dequeuer dies with the process,
        // and the reopen completes the kill.
        r.qm().update_queue("q", |m| m.started = true).unwrap();
        held = r.begin().unwrap();
        let e = r
            .qm()
            .dequeue(held.id().raw(), &h, DequeueOptions::default())
            .unwrap();
        assert!(r.qm().kill_element(e.eid).unwrap());
        r.qm().update_queue("q", |m| m.started = false).unwrap();
        assert_eq!(r.qm().gated_records(), (1, 1));
        std::mem::forget(held);
    }
    disks.crash();
    let (r, _) = Repository::open("cat-crash", disks).unwrap();
    assert_eq!(r.qm().gated_records(), (1, 0));
    assert_eq!(r.qm().depth("q").unwrap(), 0);
    let meta = r.qm().queue_meta("q").unwrap();
    assert!(!meta.started);
    assert_eq!(meta.alert_threshold, Some(7));
    let h = handle(&r, "q");
    assert!(matches!(
        try_enq(&r, &h, b"x"),
        Err(QmError::QueueStopped(_))
    ));
    // The trigger counted at open still fires.
    let hj = handle(&r, "join");
    r.autocommit(|t| {
        r.qm().enqueue(
            t.id().raw(),
            &hj,
            b"reply",
            EnqueueOptions {
                attrs: vec![("rid".into(), "a".into())],
                ..Default::default()
            },
        )
    })
    .unwrap();
    assert_eq!(r.qm().depth("next").unwrap(), 1);
    assert_eq!(r.qm().gated_records(), (0, 0));
}

#[test]
fn a_trigger_installed_late_still_fires_once() {
    let r = Repository::create("cat-trigger").unwrap();
    r.create_queue_defaults("join").unwrap();
    r.create_queue_defaults("next").unwrap();
    let h = handle(&r, "join");
    // A thousand requests go by with no trigger anywhere.
    for i in 0..1000u32 {
        enq(&r, &h, &i.to_be_bytes());
        deq(&r, &h).unwrap();
    }
    assert_eq!(r.qm().gated_records(), (0, 0));
    let trigger = || {
        Trigger::new(
            "t",
            "join",
            vec!["a".into(), "b".into()],
            "next",
            b"go".to_vec(),
        )
    };
    r.qm().set_trigger(trigger()).unwrap();
    // Installing it again replaces the record, it does not add one.
    r.qm().set_trigger(trigger()).unwrap();
    assert_eq!(r.qm().gated_records(), (1, 0));
    let reply = |rid: &str| {
        r.autocommit(|t| {
            r.qm().enqueue(
                t.id().raw(),
                &h,
                b"reply",
                EnqueueOptions {
                    attrs: vec![("rid".into(), rid.into())],
                    ..Default::default()
                },
            )
        })
        .unwrap()
    };
    reply("a");
    assert_eq!(r.qm().depth("next").unwrap(), 0);
    reply("b");
    assert_eq!(r.qm().depth("next").unwrap(), 1);
    assert_eq!(r.qm().gated_records(), (0, 0));
    reply("a");
    assert_eq!(r.qm().depth("next").unwrap(), 1, "fired once");
    assert_eq!(r.qm().stats().triggers_fired, 1);
}

#[test]
fn two_commits_completing_a_join_together_fire_it_once() {
    for round in 0..50 {
        let r = Repository::create("cat-join").unwrap();
        r.create_queue_defaults("join").unwrap();
        r.create_queue_defaults("next").unwrap();
        // A second trigger that never completes: the count must not lose it
        // to the contended one.
        for (id, rids) in [("t", vec!["a", "b"]), ("never", vec!["z"])] {
            let rids = rids.into_iter().map(String::from).collect();
            r.qm()
                .set_trigger(Trigger::new(id, "join", rids, "next", b"go".to_vec()))
                .unwrap();
        }
        let h = handle(&r, "join");
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for rid in ["a", "b"] {
                let (r, h, gate) = (&r, &h, &gate);
                s.spawn(move || {
                    gate.wait();
                    r.autocommit(|t| {
                        r.qm().enqueue(
                            t.id().raw(),
                            h,
                            b"reply",
                            EnqueueOptions {
                                attrs: vec![("rid".into(), rid.into())],
                                ..Default::default()
                            },
                        )
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(r.qm().depth("next").unwrap(), 1, "round {round}");
        assert_eq!(r.qm().gated_records(), (1, 0), "round {round}");
    }
}

#[test]
fn a_kill_of_a_held_element_is_counted_until_its_abort_clears_it() {
    let r = Repository::create("cat-kill").unwrap();
    r.create_queue_defaults("q").unwrap();
    let h = handle(&r, "q");
    // The queue has seen traffic, and no tombstone, for a while.
    for i in 0..100u32 {
        enq(&r, &h, &i.to_be_bytes());
        deq(&r, &h).unwrap();
    }
    let doomed = enq(&r, &h, b"cancel-me");
    let spared = enq(&r, &h, b"keep-me");
    let txn = r.begin().unwrap();
    let e = r
        .qm()
        .dequeue(txn.id().raw(), &h, DequeueOptions::default())
        .unwrap();
    assert_eq!(e.eid, doomed);
    assert_eq!(r.qm().gated_records(), (0, 0));
    assert!(r.qm().kill_element(doomed).unwrap());
    // Killing it twice writes one tombstone.
    assert!(r.qm().kill_element(doomed).unwrap());
    assert_eq!(r.qm().gated_records(), (0, 1));
    assert!(txn.commit().is_err(), "the holder is poisoned");
    // Its abort honoured the tombstone and retired it.
    assert_eq!(r.qm().gated_records(), (0, 0));
    assert_eq!(r.qm().depth("q").unwrap(), 1);
    assert_eq!(deq(&r, &h).unwrap(), b"keep-me");
    assert!(!r.qm().kill_element(spared).unwrap(), "too late");
    assert!(r.qm().index_divergence().unwrap().is_none());
    assert!(r.qm().retention_divergence().unwrap().is_none());
}

#[test]
fn no_enqueue_is_accepted_after_a_stop_returned() {
    let r = Repository::create("cat-race").unwrap();
    r.create_queue_defaults("q").unwrap();
    // The catalog knows the queue as started before the first stop.
    enq(&r, &handle(&r, "q"), b"warm");
    // Odd while the queue is known stopped: set after a stop returned, made
    // even again before the start is issued, never repeating a value.
    let window = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    let accepted_while_stopped = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Hold each state until the enqueuers have made a few more calls, so
    // some begin and end inside every window.
    let linger = || {
        let until = attempts.load(Ordering::SeqCst) + 8;
        while attempts.load(Ordering::SeqCst) < until {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        for t in 0..4 {
            let (r, window, attempts, done) = (&r, &window, &attempts, &done);
            let accepted_while_stopped = &accepted_while_stopped;
            s.spawn(move || {
                let (h, _) = r.qm().register("q", &format!("c{t}"), false).unwrap();
                while !done.load(Ordering::SeqCst) {
                    let before = window.load(Ordering::SeqCst);
                    let outcome = try_enq(r, &h, b"x");
                    let after = window.load(Ordering::SeqCst);
                    attempts.fetch_add(1, Ordering::SeqCst);
                    match outcome {
                        // The same odd value on both sides: the whole call
                        // ran after a stop returned and before the start.
                        Ok(_) if before == after && before % 2 == 1 => {
                            accepted_while_stopped.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(_) | Err(QmError::QueueStopped(_)) => {}
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            });
        }
        for _ in 0..100 {
            r.qm().update_queue("q", |m| m.started = false).unwrap();
            window.fetch_add(1, Ordering::SeqCst);
            linger();
            window.fetch_add(1, Ordering::SeqCst);
            r.qm().update_queue("q", |m| m.started = true).unwrap();
            linger();
        }
        done.store(true, Ordering::SeqCst);
    });
    assert_eq!(
        accepted_while_stopped.load(Ordering::SeqCst),
        0,
        "enqueues accepted after a stop returned"
    );
    assert!(r.qm().index_divergence().unwrap().is_none());
    assert!(r.qm().retention_divergence().unwrap().is_none());
}
