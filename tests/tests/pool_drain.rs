//! The paper's §1 load-sharing pool on one hot queue, under the locks'
//! spin-then-park waiting: 2 servers (one per CPU of the box this was written
//! on) and 8 (oversubscribed, so holders are preempted mid-section and
//! waiters run out of spin budget and park) drain one preloaded queue of bank
//! transfers on a one-partition repository. Every request gets exactly one `Ok`
//! reply, money is conserved, no claim mark outlives the drain, the ready
//! index agrees with storage — and all of that again after a crash and reopen.

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::request::{Reply, ReplyStatus, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{Served, Server, ServerConfig};
use rrq_core::tagcodec::encode_send_tag;
use rrq_qm::ops::EnqueueOptions;
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::retrieval::Predicate;
use rrq_storage::codec::{Decode, Encode};
use rrq_workload::bank::{self, Transfer};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CLIENT: &str = "c0";
const REQ: &str = "req";
const REPLY: &str = "reply.c0";
const ACCOUNTS: u32 = 2_000;
const BALANCE: i64 = 1_000;
const REQUESTS: u64 = 4_000;

/// `from < to`, so two transfers never wait for each other in opposite
/// orders: lock waits happen, deadlocks do not.
fn transfer(serial: u64) -> Transfer {
    let pick = |salt: u64| (serial.wrapping_mul(salt) >> 33) as u32 % ACCOUNTS;
    let (a, b) = (pick(0x9E37_79B9_7F4A_7C15), pick(0xC2B2_AE3D_27D4_EB4F));
    let b = if a == b { (a + 1) % ACCOUNTS } else { b };
    Transfer {
        from: a.min(b),
        to: a.max(b),
        amount: 1 + (serial % 7) as i64,
    }
}

fn preload(repo: &Arc<Repository>) {
    let api = LocalQm::new(Arc::clone(repo));
    api.register(REQ, CLIENT, true).unwrap();
    for serial in 1..=REQUESTS {
        let rid = Rid::new(CLIENT, serial);
        let opts = EnqueueOptions {
            priority: 0,
            attrs: vec![
                ("rid".into(), rid.to_attr()),
                ("reply_queue".into(), REPLY.into()),
            ],
            tag: Some(encode_send_tag(&rid)),
        };
        let request = Request::new(rid, REPLY, "transfer", transfer(serial).encode());
        api.enqueue(REQ, CLIENT, &request.encode_to_vec(), opts)
            .unwrap();
    }
}

/// What must hold once the queue is drained, before and after a crash.
fn assert_drained(repo: &Repository, at: &str) {
    let qm = repo.qm();
    assert_eq!(qm.depth(REQ).unwrap(), 0, "{at}: requests left");
    let mut replies = vec![0u32; REQUESTS as usize];
    for e in qm.query(REPLY, &Predicate::True).unwrap() {
        let r = Reply::decode_all(&e.payload).unwrap();
        assert_eq!(r.rid.client, CLIENT, "{at}");
        assert_eq!(r.status, ReplyStatus::Ok, "{at}: {}", r.rid);
        assert_eq!(r.body, b"transferred", "{at}: {}", r.rid);
        replies[r.rid.serial as usize - 1] += 1;
    }
    let wrong: Vec<_> = (1..=REQUESTS)
        .filter(|s| replies[*s as usize - 1] != 1)
        .collect();
    assert!(
        wrong.is_empty(),
        "{at}: not exactly one reply for {wrong:?}"
    );
    assert_eq!(
        bank::total_money(repo, ACCOUNTS).unwrap(),
        i64::from(ACCOUNTS) * BALANCE,
        "{at}: money not conserved"
    );
    assert_eq!(
        qm.claimed_entries(),
        0,
        "{at}: a claim mark outlived the drain"
    );
    assert_eq!(qm.index_divergence().unwrap(), None, "{at}");
    assert_eq!(qm.retention_divergence().unwrap(), None, "{at}");
}

fn pool_drains_the_queue(servers: usize) {
    let disks = RepoDisks::new();
    let (repo, _) = Repository::open("pool", disks.clone()).unwrap();
    let repo = Arc::new(repo);
    repo.create_queue_defaults(REQ).unwrap();
    repo.create_queue_defaults(REPLY).unwrap();
    bank::seed_accounts(&repo, ACCOUNTS, BALANCE).unwrap();
    preload(&repo);

    let pool: Vec<Arc<Server>> = (0..servers)
        .map(|i| {
            let mut cfg = ServerConfig::new(format!("s{i}"), REQ);
            cfg.block = Duration::ZERO;
            Server::new(Arc::clone(&repo), cfg, bank::single_txn_handler()).unwrap()
        })
        .collect();
    let start = Barrier::new(servers);
    let committed: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = pool
            .iter()
            .map(|server| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut committed = 0;
                    loop {
                        match server.run_once().unwrap() {
                            Served::Committed => committed += 1,
                            Served::Idle => return committed,
                            Served::Aborted | Served::Rolled => {}
                        }
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(committed as u64, REQUESTS, "one commit per request");
    assert_drained(&repo, "after the drain");

    drop(pool);
    drop(repo);
    disks.crash();
    let (repo, _) = Repository::open("pool", disks).unwrap();
    assert_drained(&repo, "after crash and reopen");
}

#[test]
fn two_servers_drain_one_queue() {
    pool_drains_the_queue(2);
}

#[test]
fn eight_servers_drain_one_queue() {
    pool_drains_the_queue(8);
}
