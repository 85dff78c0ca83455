//! Happens-before race detection over the instrumented production paths.
//!
//! Positive: a concurrent bank run (4 servers sharing one queue, lock-
//! protected balance updates, queue-edge-ordered element cells) must be
//! race-free. Negative: a deliberately unlocked write to an account cell
//! must be flagged, with both access stacks in the report — by the
//! detector of the repository it was written to, and by no other.

use rrq_check::race::Detector;
use rrq_core::api::{LocalQm, QmApi};
use rrq_core::request::{Reply, Request};
use rrq_core::rid::Rid;
use rrq_core::server::spawn_pool;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::Repository;
use rrq_storage::codec::{Decode, Encode};
use rrq_workload::bank;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A repository with a race detector attached to its handle.
fn watched(name: &str) -> (Arc<Repository>, Arc<Detector>) {
    let repo = Arc::new(Repository::create(name).unwrap());
    let detector = Detector::attach(repo.obs());
    (repo, detector)
}

fn run_transfers(repo: &Arc<Repository>, n: u64) {
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults("reply.c").unwrap();
    bank::seed_accounts(repo, 6, 10_000).unwrap();
    let (_servers, handles, stop) = spawn_pool(repo, "req", 4, bank::single_txn_handler()).unwrap();

    let api = LocalQm::new(Arc::clone(repo));
    api.register("req", "c", false).unwrap();
    api.register("reply.c", "c", false).unwrap();
    for serial in 1..=n {
        // Overlapping account pairs so servers genuinely contend on locks.
        let t = bank::Transfer {
            from: (serial % 6) as u32,
            to: ((serial + 1) % 6) as u32,
            amount: 50,
        };
        let req = Request::new(Rid::new("c", serial), "reply.c", "transfer", t.encode());
        api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
    }
    for _ in 0..n {
        let elem = api
            .dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(60)),
                    ..Default::default()
                },
            )
            .unwrap();
        let reply = Reply::decode_all(&elem.payload).unwrap();
        assert_eq!(reply.body, b"transferred");
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(bank::total_money(repo, 6).unwrap(), 60_000);
}

/// The seeded bug: a rogue thread writing an account cell of `repo`
/// without taking the BANK_NS lock.
fn rogue_unlocked_write(repo: &Arc<Repository>) {
    let repo = Arc::clone(repo);
    std::thread::spawn(move || repo.obs().on_write(|| bank::account_cell(0)))
        .join()
        .unwrap();
}

#[test]
fn concurrent_bank_run_is_race_free() {
    let (repo, detector) = watched("race-bank-ok");
    run_transfers(&repo, 30);
    detector.assert_race_free();
}

#[test]
fn unlocked_account_write_is_flagged() {
    let (repo, detector) = watched("race-bank-neg");
    run_transfers(&repo, 6);

    // A rogue thread writing an account cell without taking the BANK_NS
    // lock: no lock or queue edge orders it against the servers' protected
    // writes, so the detector must flag the pair. (The main test thread
    // would NOT do as the rogue — draining the reply queue ordered it after
    // every server write via the queue edge, which is exactly the
    // happens-before reasoning the detector encodes.)
    rogue_unlocked_write(&repo);

    let reports = detector.take_reports();
    assert!(
        !reports.is_empty(),
        "unlocked write must race with the servers' locked writes"
    );
    let rendered = reports[0].to_string();
    assert!(
        rendered.contains(&bank::account_cell(0)),
        "report names the cell: {rendered}"
    );
    // Both access stacks are dumped for diagnosis.
    assert!(
        rendered.contains("first access") && rendered.contains("second access"),
        "report carries both access stacks: {rendered}"
    );
}

/// Two repositories, each with its own detector, running the bank side by
/// side: the unlocked write to one is reported by that one's detector only.
#[test]
fn a_detector_reports_only_its_own_repositorys_races() {
    let (buggy, buggy_detector) = watched("race-bank-buggy");
    let (clean, clean_detector) = watched("race-bank-clean");
    std::thread::scope(|s| {
        s.spawn(|| run_transfers(&buggy, 12));
        s.spawn(|| run_transfers(&clean, 12));
    });
    rogue_unlocked_write(&buggy);
    let reports = buggy_detector.take_reports();
    assert!(!reports.is_empty(), "the seeded write must be reported");
    assert!(reports.iter().all(|r| r.cell == bank::account_cell(0)));
    clean_detector.assert_race_free();
}
