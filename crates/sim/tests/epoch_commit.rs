//! Epoch commit on the server loop (DESIGN.md S26): the `spawn` loop's
//! deferred commits and one force per epoch must be indistinguishable, to
//! everything but a stopwatch, from `run_once`'s forced commit per request.
//!
//! * **Lockstep**: the same seeded bank stream through a three-stage
//!   pipeline (`Forward` or `ForwardInheriting`), drained once by `run_once`
//!   loops and once by epochs, ends in the same balances, clearinghouse log,
//!   queue depths and reply multiset — at one and at four partitions (where
//!   forwards and replies that cross a partition commit two-phase inside the
//!   epoch), with handler aborts, rejected bodies, an undecodable element and
//!   a `KillElement` that lands while an epoch is open.
//! * **Crash windows**, driven through the two halves of an epoch
//!   (`serve_deferred`, `close_epoch`): before the force every request comes
//!   back and no reply exists; after the force and before the mirrors are
//!   applied every reply exists exactly once.
//! * **A failed force** shows nothing, and fails the log: the reopen shows
//!   every reply once, whether it kept the unforced records or a crash
//!   dropped them.
//! * **A transaction that went through `prepare`** is visible and durable at
//!   once, open epoch or not.
//!
//! Every quiescent point is checked for leftover claim marks and buffered
//! mirrors. (The concurrent-close ordering is pinned one layer down, in
//! `crates/qm/tests/epoch_close.rs`.)

use rrq_core::pipeline::{Pipeline, Serializability, StageFn};
use rrq_core::request::{Reply, ReplyStatus, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{spawn_pool, HandlerError, HandlerOutcome, Served, Server, ServerConfig};
use rrq_core::CoreError;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_storage::codec::{Decode, Encode};
use rrq_workload::arrivals::SplitMix;
use rrq_workload::bank::{self, Transfer};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const STAGES: [&str; 3] = ["req", "stage1", "stage2"];
const REPLY: &str = "reply.c1";
const INITIAL: i64 = 10_000;

fn open(name: &str, disks: RepoDisks, reply: &str) -> Arc<Repository> {
    let (repo, _) = Repository::open(name, disks).unwrap();
    for q in STAGES.iter().chain([&reply]) {
        repo.create_queue_defaults(q).unwrap();
    }
    Arc::new(repo)
}

/// Enqueue raw `payload` on `req`; returns the element id.
fn enqueue(repo: &Repository, payload: &[u8]) -> rrq_qm::element::Eid {
    let qm = repo.qm_for("req");
    let (h, _) = qm.register("req", "loader", false).unwrap();
    repo.autocommit_on("req", |t| {
        qm.enqueue(t.id().raw(), &h, payload, EnqueueOptions::default())
    })
    .unwrap()
}

fn transfer_request(serial: u64, reply: &str, body: Vec<u8>) -> Vec<u8> {
    Request::new(Rid::new("c1", serial), reply, "transfer", body).encode_to_vec()
}

fn drain_replies(repo: &Repository, reply: &str) -> Vec<(Rid, ReplyStatus, Vec<u8>)> {
    let qm = repo.qm_for(reply);
    let (h, _) = qm.register(reply, "drain", false).unwrap();
    let mut out = Vec::new();
    while let Ok(elem) = repo.autocommit_on(reply, |t| {
        qm.dequeue(t.id().raw(), &h, DequeueOptions::default())
    }) {
        let r = Reply::decode_all(&elem.payload).unwrap();
        out.push((r.rid, r.status, r.body));
    }
    out.sort_by_key(|r| r.0.serial);
    out
}

/// Nothing half-done anywhere: no claim marks, no buffered mirrors, index
/// equal to a storage scan.
fn assert_quiescent(repo: &Repository, tag: &str) {
    for p in 0..repo.partitions() {
        let qm = repo.qm_at(p);
        assert_eq!(qm.claimed_entries(), 0, "{tag}: claim marks left on p{p}");
        assert_eq!(qm.deferred_commits(), 0, "{tag}: mirrors left on p{p}");
        assert_eq!(qm.index_divergence().unwrap(), None, "{tag}: p{p}");
        assert_eq!(qm.retention_divergence().unwrap(), None, "{tag}: p{p}");
    }
}

// ----------------------------------------------------------------------
// Lockstep
// ----------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Observed {
    balances: Vec<i64>,
    clearing: usize,
    depths: BTreeMap<&'static str, usize>,
    replies: Vec<(Rid, ReplyStatus, Vec<u8>)>,
    kills: (bool, bool),
}

/// One request in three: `from`/`to` are private to the request, so lock
/// inheritance never meets the head-of-line inversion `pipeline.rs`
/// describes. Serials divisible by 7 carry an undecodable body (a `Reject`).
fn stream(seed: u64, n: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix::new(seed);
    (1..=n)
        .map(|serial| {
            let t = Transfer {
                from: 2 * serial as u32,
                to: 2 * serial as u32 + 1,
                amount: 1 + (rng.next_u64() % 500) as i64,
            };
            let body = if serial % 7 == 0 {
                vec![0xFF; 3]
            } else {
                t.encode()
            };
            transfer_request(serial, REPLY, body)
        })
        .collect()
}

/// The bank pipeline, except that every fifth request's first stage aborts
/// the first time it is tried.
fn pipeline(mode: Serializability) -> Pipeline {
    let bank = bank::transfer_pipeline(STAGES, mode);
    let inner = Arc::clone(&bank.stage_fn);
    let tried = Mutex::new(HashSet::new());
    let stage_fn: StageFn = Arc::new(move |ctx, req, i| {
        if i == 0 && req.rid.serial % 5 == 0 && tried.lock().unwrap().insert(req.rid.serial) {
            return Err(HandlerError::Abort("first try".into()));
        }
        inner(ctx, req, i)
    });
    Pipeline { stage_fn, ..bank }
}

fn run_lockstep(seed: u64, parts: usize, mode: Serializability, epochs: bool) -> Observed {
    const N: u64 = 30;
    let repo = open("lockstep", RepoDisks::partitioned(parts), REPLY);
    bank::seed_accounts(&repo, 2 * N as u32 + 2, INITIAL).unwrap();
    let servers = pipeline(mode).build_servers(&repo).unwrap();
    let mut eids = Vec::new();
    for (i, payload) in stream(seed, N).iter().enumerate() {
        if i == 10 {
            enqueue(&repo, b"not a request");
        }
        eids.push(enqueue(&repo, payload));
    }

    // One served request, whichever way this side commits it.
    let serve_one = |s: &Server| {
        let served = if epochs {
            s.serve_deferred(None)
        } else {
            s.run_once()
        };
        match served {
            Ok(Served::Idle) => panic!("idle with a request queued"),
            Ok(_) | Err(CoreError::Malformed(_)) => {}
            Err(e) => panic!("serve failed: {e}"),
        }
    };
    // Three requests in, the epoch still open: a kill of a queued request
    // lands, a kill of a served one is too late — on both sides alike.
    for _ in 0..3 {
        serve_one(&servers[0]);
    }
    let qm = repo.qm_for("req");
    let kills = (
        qm.kill_element(eids[21]).unwrap(),
        qm.kill_element(eids[1]).unwrap(),
    );
    servers[0].close_epoch().unwrap();

    loop {
        let mut any = false;
        for (s, q) in servers.iter().zip(STAGES) {
            while repo.qm_for(q).depth(q).unwrap() > 0 {
                any = true;
                if epochs {
                    assert!(s.run_epoch().unwrap() > 0);
                } else {
                    serve_one(s);
                }
            }
        }
        if !any {
            break;
        }
    }
    let tag = format!("seed {seed}, {parts} partition(s), {mode:?}, epochs {epochs}");
    assert_quiescent(&repo, &tag);

    let accounts = 2 * N as u32 + 2;
    assert_eq!(
        bank::total_money(&repo, accounts).unwrap(),
        i64::from(accounts) * INITIAL,
        "{tag}: money not conserved"
    );
    Observed {
        balances: (0..accounts)
            .map(|i| bank::balance(&repo, i).unwrap())
            .collect(),
        clearing: bank::clearing_count(&repo).unwrap(),
        depths: STAGES
            .iter()
            .map(|q| (*q, repo.qm_for(q).depth(q).unwrap()))
            .collect(),
        replies: drain_replies(&repo, REPLY),
        kills,
    }
}

#[test]
fn epoch_loop_matches_run_once_loop() {
    for parts in [1, 4] {
        for mode in [Serializability::None, Serializability::InheritLocks] {
            for seed in 0..3 {
                let once = run_lockstep(seed, parts, mode, false);
                let epoch = run_lockstep(seed, parts, mode, true);
                assert_eq!(once, epoch, "seed {seed}, {parts} partition(s), {mode:?}");
                assert_eq!(once.kills, (true, false));
                // 30 requests, one killed; four of the rest rejected.
                assert_eq!(once.replies.len(), 29);
                let failed = once.replies.iter().filter(|r| r.1 == ReplyStatus::Failed);
                assert_eq!(failed.count(), 4);
                assert_eq!(once.clearing, 25);
            }
        }
    }
}

/// Two spawned servers on one queue: every request answered once, and
/// nothing left behind when they stop.
#[test]
fn spawned_pool_answers_every_request_once_and_stops_clean() {
    let repo = open("pool", RepoDisks::new(), REPLY);
    // Four accounts make deadlock victims; retried without limit, none of
    // them may end in the error queue.
    repo.qm()
        .update_queue("req", |m| m.retry_limit = 0)
        .unwrap();
    bank::seed_accounts(&repo, 4, INITIAL).unwrap();
    let mut rng = SplitMix::new(7);
    for serial in 1..=200u64 {
        let t = Transfer {
            from: (rng.next_u64() % 4) as u32,
            to: (rng.next_u64() % 4) as u32,
            amount: 1 + (rng.next_u64() % 50) as i64,
        };
        enqueue(&repo, &transfer_request(serial, REPLY, t.encode()));
    }
    let (_, threads, stop) = spawn_pool(&repo, "req", 2, bank::single_txn_handler()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while repo.qm().depth(REPLY).unwrap() < 200 {
        assert!(Instant::now() < deadline, "the pool stopped answering");
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Release);
    for t in threads {
        t.join().unwrap();
    }
    assert_quiescent(&repo, "stopped pool");
    assert_eq!(repo.qm().depth("req").unwrap(), 0);
    let serials: Vec<u64> = drain_replies(&repo, REPLY)
        .iter()
        .map(|r| r.0.serial)
        .collect();
    assert_eq!(serials, (1..=200).collect::<Vec<_>>());
    assert_eq!(bank::total_money(&repo, 4).unwrap(), 4 * INITIAL);
}

/// A handler that panics takes its own request back to the queue (the
/// dropped transaction aborts) and still closes the epoch: the replies
/// committed before it are shown, not stranded behind a dead thread.
#[test]
fn a_panicking_handler_still_closes_its_epoch() {
    let repo = open("panic", RepoDisks::new(), REPLY);
    for serial in 1..=3 {
        enqueue(&repo, &transfer_request(serial, REPLY, vec![]));
    }
    let server = Server::new(
        Arc::clone(&repo),
        ServerConfig::new("panic-s0", "req"),
        Arc::new(|_ctx, req: &Request| {
            assert!(req.rid.serial < 3, "handler bug on request 3");
            Ok(HandlerOutcome::Reply(vec![]))
        }),
    )
    .unwrap();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.run_epoch()));
    assert!(unwound.is_err());
    assert_quiescent(&repo, "after the unwind");
    assert_eq!(repo.qm().depth(REPLY).unwrap(), 2);
    assert_eq!(repo.qm().depth("req").unwrap(), 1);
}

// ----------------------------------------------------------------------
// Crash windows, a failed force, the prepare rule
// ----------------------------------------------------------------------

/// Five transfers 0 → 1 of 100 each, served deferred, epoch left open.
fn five_deferred(disks: &RepoDisks, reply: &str) -> (Arc<Repository>, Arc<Server>) {
    let repo = open("win", disks.clone(), reply);
    bank::seed_accounts_on(&repo, "req", 2, INITIAL).unwrap();
    for serial in 1..=5 {
        let t = Transfer {
            from: 0,
            to: 1,
            amount: 100,
        };
        enqueue(&repo, &transfer_request(serial, reply, t.encode()));
    }
    let server = Server::new(
        Arc::clone(&repo),
        ServerConfig::new("win-s0", "req"),
        bank::single_txn_handler(),
    )
    .unwrap();
    for _ in 0..5 {
        assert_eq!(server.serve_deferred(None).unwrap(), Served::Committed);
    }
    (repo, server)
}

/// Reopen after a crash, or after a process restart that keeps the
/// unsynced bytes, and serve what came back.
fn reopen_and_drain(disks: &RepoDisks, crash: bool) -> (Arc<Repository>, usize) {
    if crash {
        disks.crash();
    }
    let repo = open("win", disks.clone(), REPLY);
    assert_quiescent(&repo, "after recovery");
    let server = Server::new(
        Arc::clone(&repo),
        ServerConfig::new("win-s1", "req"),
        bank::single_txn_handler(),
    )
    .unwrap();
    let mut redone = 0;
    while repo.qm().depth("req").unwrap() > 0 {
        redone += server.run_epoch().unwrap();
    }
    assert_quiescent(&repo, "after the re-drain");
    (repo, redone)
}

fn assert_five_replies_once(repo: &Repository) {
    let serials: Vec<u64> = drain_replies(repo, REPLY)
        .iter()
        .map(|r| r.0.serial)
        .collect();
    assert_eq!(serials, vec![1, 2, 3, 4, 5]);
    assert_eq!(bank::balance(repo, 0).unwrap(), INITIAL - 500);
    assert_eq!(bank::balance(repo, 1).unwrap(), INITIAL + 500);
    assert_eq!(bank::clearing_count(repo).unwrap(), 5);
}

#[test]
fn crash_before_the_force_returns_every_request_with_no_reply() {
    let disks = RepoDisks::new();
    let (repo, server) = five_deferred(&disks, REPLY);
    assert_eq!(repo.qm().deferred_commits(), 5);
    assert_eq!(repo.qm().depth(REPLY).unwrap(), 0, "reply shown unforced");
    drop((server, repo));

    disks.crash();
    let repo = open("win", disks.clone(), REPLY);
    assert_eq!(repo.qm().depth("req").unwrap(), 5);
    assert_eq!(repo.qm().depth(REPLY).unwrap(), 0);
    assert_eq!(bank::balance(&repo, 0).unwrap(), INITIAL);
    assert_eq!(bank::balance(&repo, 1).unwrap(), INITIAL);
    drop(repo);

    let (repo, redone) = reopen_and_drain(&disks, true);
    assert_eq!(redone, 5);
    assert_five_replies_once(&repo);
}

#[test]
fn crash_after_the_force_before_the_apply_keeps_every_reply_once() {
    let disks = RepoDisks::new();
    let (repo, server) = five_deferred(&disks, REPLY);
    // The first half of `close_epoch`, and then the lights go out.
    repo.store().force_wal().unwrap();
    assert_eq!(repo.qm().depth(REPLY).unwrap(), 0);
    drop((server, repo));

    let (repo, redone) = reopen_and_drain(&disks, true);
    assert_eq!(redone, 0, "a forced request was served again");
    assert_five_replies_once(&repo);
}

#[test]
fn a_failed_force_shows_nothing_and_the_reopen_shows_every_reply_once() {
    // The five commit records are on the device, unforced: a restart keeps
    // them (nothing is served again), a crash drops them (all five are).
    for (crash, redo) in [(false, 0), (true, 5)] {
        let disks = RepoDisks::new();
        let (repo, server) = five_deferred(&disks, REPLY);
        disks.wal.fail();
        assert!(server.close_epoch().is_err());
        assert_eq!(
            repo.qm().depth(REPLY).unwrap(),
            0,
            "mirror applied unforced"
        );
        assert_eq!(repo.qm().deferred_commits(), 0, "mirrors put back");

        // The log stays failed: a later close has nothing to show, and
        // nothing forces the failed records.
        disks.wal.repair();
        assert_eq!(server.close_epoch(), Ok(()));
        assert_eq!(repo.qm().depth(REPLY).unwrap(), 0);
        assert_eq!(
            repo.store().force_wal(),
            Err(rrq_storage::StorageError::LogFailed)
        );
        drop((server, repo));

        let (repo, redone) = reopen_and_drain(&disks, crash);
        assert_eq!(redone, redo, "crash: {crash}");
        assert_five_replies_once(&repo);
    }
}

#[test]
fn a_prepared_transaction_is_visible_and_durable_inside_an_open_epoch() {
    const PARTS: usize = 4;
    let reply = (0..64)
        .map(|i| format!("reply.x{i}"))
        .find(|q| {
            rrq_qm::route::partition_of(q, PARTS) != rrq_qm::route::partition_of("req", PARTS)
        })
        .unwrap();
    let disks = RepoDisks::partitioned(PARTS);
    let (repo, server) = five_deferred(&disks, &reply);
    // Each commit enlisted the reply queue's partition: two-phase, forced,
    // mirrored on the spot — the epoch has nothing left to close.
    assert_eq!(repo.qm_for(&reply).depth(&reply).unwrap(), 5);
    assert_eq!(repo.qm_for("req").depth("req").unwrap(), 0);
    assert_quiescent(&repo, "open epoch of two-phase commits");
    drop((server, repo));

    disks.crash();
    let repo = open("win", disks.clone(), &reply);
    assert_eq!(repo.qm_for("req").depth("req").unwrap(), 0);
    let serials: Vec<u64> = drain_replies(&repo, &reply)
        .iter()
        .map(|r| r.0.serial)
        .collect();
    assert_eq!(serials, vec![1, 2, 3, 4, 5]);
    assert_eq!(bank::balance(&repo, 0).unwrap(), INITIAL - 500);
}
