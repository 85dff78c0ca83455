//! Happens-before race detection over the instrumented production paths.
//!
//! Positive: a concurrent bank run (4 servers sharing one queue, lock-
//! protected balance updates, queue-edge-ordered element cells) must be
//! race-free. Negative: a deliberately unlocked write to an account cell
//! must be flagged, with both access stacks in the report.

use rrq_check::race::{self, Session};
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

fn run_transfers(name: &str, n: u64) -> Arc<Repository> {
    let repo = Arc::new(Repository::create(name).unwrap());
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults("reply.c").unwrap();
    bank::seed_accounts(&repo, 6, 10_000).unwrap();
    let (_servers, handles, stop) =
        spawn_pool(&repo, "req", 4, bank::single_txn_handler()).unwrap();

    let api = LocalQm::new(Arc::clone(&repo));
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
    repo
}

#[test]
fn concurrent_bank_run_is_race_free() {
    let session = Session::start();
    let repo = run_transfers("race-bank-ok", 30);
    assert_eq!(bank::total_money(&repo, 6).unwrap(), 60_000);
    session.assert_race_free();
}

#[test]
fn unlocked_account_write_is_flagged() {
    let session = Session::start();
    let repo = run_transfers("race-bank-neg", 6);
    assert_eq!(bank::total_money(&repo, 6).unwrap(), 60_000);

    // A rogue thread writing an account cell without taking the BANK_NS
    // lock: no lock or queue edge orders it against the servers' protected
    // writes, so the detector must flag the pair. (The main test thread
    // would NOT do as the rogue — draining the reply queue ordered it after
    // every server write via the queue edge, which is exactly the
    // happens-before reasoning the detector encodes.)
    std::thread::spawn(|| race::on_write(|| bank::account_cell(0)))
        .join()
        .unwrap();

    let reports = session.take_reports();
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
