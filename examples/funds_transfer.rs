//! The §6 funds transfer as a three-transaction pipeline — with a server
//! node crash in the middle of the run.
//!
//! Run with:
//! ```sh
//! cargo run --release -p rrq-bench --example funds_transfer
//! ```
//!
//! Each transfer executes as {debit source} → {credit target} → {log with
//! clearinghouse}, each its own transaction chained through queues. The node
//! is crashed mid-run; requests resume from their last committed stage, and
//! the example verifies total money is conserved and every transfer cleared
//! exactly once.

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::pipeline::Serializability;
use rrq_core::request::Request;
use rrq_core::rid::Rid;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::RepoDisks;
use rrq_sim::node::{ServerFactory, ServerNodeSim};
use rrq_storage::codec::Encode;
use rrq_workload::bank::{self, Transfer};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNTS: u32 = 8;
const TRANSFERS: u64 = 24;
const INITIAL: i64 = 100_000;

fn main() {
    let factory: ServerFactory = Arc::new(|repo| {
        bank::transfer_pipeline(
            ["xfer.debit", "xfer.credit", "xfer.clear"],
            Serializability::None,
        )
        .build_servers(repo)
    });
    let mut node = ServerNodeSim::with_factory(
        "bank",
        RepoDisks::new(),
        vec![
            "xfer.debit".into(),
            "xfer.credit".into(),
            "xfer.clear".into(),
            "reply.teller".into(),
        ],
        factory,
    );
    node.start().expect("boot bank node");
    bank::seed_accounts(&node.repo(), ACCOUNTS, INITIAL).expect("seed accounts");
    println!(
        "seeded {ACCOUNTS} accounts; total = {}",
        bank::total_money(&node.repo(), ACCOUNTS).unwrap()
    );

    // Submit the batch of transfers.
    let api = LocalQm::new(node.repo());
    api.register("xfer.debit", "teller", false).unwrap();
    for i in 0..TRANSFERS {
        let t = Transfer {
            from: (i % ACCOUNTS as u64) as u32,
            to: ((i + 3) % ACCOUNTS as u64) as u32,
            amount: 250,
        };
        let req = Request::new(
            Rid::new("teller", i + 1),
            "reply.teller",
            "transfer",
            t.encode(),
        );
        api.enqueue(
            "xfer.debit",
            "teller",
            &req.encode_to_vec(),
            EnqueueOptions::default(),
        )
        .unwrap();
    }
    println!("submitted {TRANSFERS} transfers");

    // Let the pipeline run briefly, then pull the plug on the whole node.
    std::thread::sleep(Duration::from_millis(50));
    println!("*** crashing the bank node mid-run ***");
    node.crash();
    let report = node.start().expect("recover bank node");
    println!(
        "recovered: {} committed txns replayed from the log",
        report.committed_txns
    );

    // Collect every reply.
    let api = LocalQm::new(node.repo());
    api.register("reply.teller", "teller", false).unwrap();
    let mut received = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while received < TRANSFERS {
        assert!(
            Instant::now() < deadline,
            "stalled at {received}/{TRANSFERS}"
        );
        if api
            .dequeue(
                "reply.teller",
                "teller",
                DequeueOptions {
                    block: Some(Duration::from_secs(5)),
                    ..Default::default()
                },
            )
            .is_ok()
        {
            received += 1;
        }
    }

    let repo = node.repo();
    let total = bank::total_money(&repo, ACCOUNTS).unwrap();
    let cleared = bank::clearing_count(&repo).unwrap();
    println!("replies received : {received}");
    println!(
        "total money      : {total} (expected {})",
        INITIAL * ACCOUNTS as i64
    );
    println!("clearing entries : {cleared} (expected {TRANSFERS})");
    assert_eq!(total, INITIAL * ACCOUNTS as i64, "conservation violated");
    assert_eq!(cleared as u64, TRANSFERS, "exactly-once clearing violated");
    println!("OK: money conserved and every transfer cleared exactly once, despite the crash");
}
