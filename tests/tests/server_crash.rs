//! Server-side failures (§5): requests survive node crashes, each is
//! processed exactly once, and multi-transaction pipelines resume
//! mid-request after recovery (§6).

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::pipeline::Serializability;
use rrq_core::request::{Reply, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{Handler, HandlerOutcome, Served, Server, ServerConfig};
use rrq_core::CoreError;
use rrq_qm::error::QmError;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_sim::node::{ServerFactory, ServerNodeSim};
use rrq_sim::oracle::EffectLedger;
use rrq_storage::codec::{Decode, Encode};
use rrq_storage::{Disk, StorageError};
use rrq_txn::TxnError;
use rrq_workload::bank::{self, Transfer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pump requests into a node that crashes repeatedly; every request must be
/// processed exactly once and every reply delivered.
#[test]
fn exactly_once_across_repeated_node_crashes() {
    let handler_factory: Arc<dyn Fn() -> Handler + Send + Sync> = Arc::new(|| {
        EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            Ok(rrq_core::server::HandlerOutcome::Reply(
                format!("ok {}", req.rid).into_bytes(),
            ))
        }))
    });
    let mut node = ServerNodeSim::new(
        "crashy",
        "req",
        2,
        vec!["req".into(), "reply.c".into()],
        handler_factory,
    );
    node.start().unwrap();

    const N: u64 = 20;
    let mut received = 0u64;
    let mut sent = 0u64;
    let mut expected = Vec::new();
    while received < N {
        // (Re)create the client's view of the node.
        let api = LocalQm::new(node.repo());
        api.register("req", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        // Send a few, crash the node, collect replies after restart.
        for _ in 0..4 {
            if sent < N {
                sent += 1;
                let rid = Rid::new("c", sent);
                expected.push(rid.clone());
                let req = Request::new(rid, "reply.c", "op", vec![]);
                api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                    .unwrap();
            }
        }
        // Let the servers make some progress, then pull the plug.
        std::thread::sleep(Duration::from_millis(30));
        node.crash();
        node.start().unwrap();
        let api = LocalQm::new(node.repo());
        // Drain all replies currently available (more may come later).
        while let Ok(elem) = api.dequeue(
            "reply.c",
            "c",
            DequeueOptions {
                block: Some(Duration::from_millis(400)),
                ..Default::default()
            },
        ) {
            let reply = Reply::decode_all(&elem.payload).unwrap();
            assert!(expected.contains(&reply.rid), "unknown reply {}", reply.rid);
            received += 1;
            if received == N {
                break;
            }
        }
        assert!(
            node.crash_count() < 40,
            "test runaway: {received}/{N} after {} crashes",
            node.crash_count()
        );
    }

    let violations = EffectLedger::violations(&node.repo(), &expected).unwrap();
    assert!(violations.is_empty(), "{violations:?}");
    assert!(node.crash_count() >= 4, "crashes actually happened");
}

/// The §6 funds-transfer pipeline: crash the node between stages; the
/// request resumes from its last committed stage and money is conserved.
#[test]
fn pipeline_resumes_after_crash_and_conserves_money() {
    let factory: ServerFactory = Arc::new(|repo| {
        let pipeline = bank::transfer_pipeline(["xfer0", "xfer1", "xfer2"], Serializability::None);
        pipeline.build_servers(repo)
    });
    let mut node = ServerNodeSim::with_factory(
        "bank-node",
        RepoDisks::new(),
        vec![
            "xfer0".into(),
            "xfer1".into(),
            "xfer2".into(),
            "reply.c".into(),
        ],
        factory,
    );
    node.start().unwrap();
    bank::seed_accounts(&node.repo(), 4, 10_000).unwrap();

    const TRANSFERS: u64 = 8;
    let api = LocalQm::new(node.repo());
    api.register("xfer0", "c", false).unwrap();
    for i in 0..TRANSFERS {
        let t = Transfer {
            from: (i % 4) as u32,
            to: ((i + 1) % 4) as u32,
            amount: 100,
        };
        let req = Request::new(Rid::new("c", i + 1), "reply.c", "transfer", t.encode());
        api.enqueue(
            "xfer0",
            "c",
            &req.encode_to_vec(),
            EnqueueOptions::default(),
        )
        .unwrap();
    }

    // Crash the node a few times while the pipeline grinds through.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut received = 0u64;
    while received < TRANSFERS {
        assert!(Instant::now() < deadline, "only {received}/{TRANSFERS}");
        std::thread::sleep(Duration::from_millis(40));
        node.crash();
        node.start().unwrap();
        let api = LocalQm::new(node.repo());
        api.register("reply.c", "c", false).unwrap();
        while received < TRANSFERS {
            match api.dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_millis(500)),
                    ..Default::default()
                },
            ) {
                Ok(_) => received += 1,
                Err(_) => break,
            }
        }
    }

    let repo = node.repo();
    assert_eq!(
        bank::total_money(&repo, 4).unwrap(),
        40_000,
        "conservation across crashes"
    );
    assert_eq!(
        bank::clearing_count(&repo).unwrap(),
        TRANSFERS as usize,
        "each transfer cleared exactly once"
    );
    // No request left anywhere in the pipeline.
    for q in ["xfer0", "xfer1", "xfer2"] {
        assert_eq!(repo.qm().depth(q).unwrap(), 0, "{q} drained");
    }
}

/// A checkpoint is swapped onto its device whole, so no crash leaves a
/// damaged one: a checkpoint that fails its CRC is corruption. Reopening the
/// node's repository over it must fail — not come up without the accounts —
/// and must leave the device as it found it.
#[test]
fn a_corrupt_checkpoint_fails_the_reopen_and_is_left_untouched() {
    let (repo, _) = Repository::open("bank", RepoDisks::new()).unwrap();
    bank::seed_accounts(&repo, 100, 1_000).unwrap();
    repo.checkpoint().unwrap();
    let disks = repo.disks().clone();
    drop(repo);
    disks.crash();

    let ckpt = &disks.ckpt;
    let mut bytes = ckpt.read(0, ckpt.len() as usize).unwrap();
    bytes[40] ^= 0xFF;
    ckpt.reset(bytes.clone()).unwrap();

    match Repository::open("bank", disks.clone()) {
        Err(QmError::Storage(StorageError::Corrupt { .. })) => {}
        Err(e) => panic!("the reopen failed, but not as corrupt: {e}"),
        Ok((repo, _)) => panic!(
            "reopened over a corrupt checkpoint with {} keys",
            repo.store().committed_len()
        ),
    }
    assert_eq!(
        ckpt.read(0, ckpt.len() as usize).unwrap(),
        bytes,
        "the checkpoint device was changed"
    );
}

/// Every outcome that commits meets a failed log device the same way: the
/// commit's storage error reaches the caller of `run_once`, the request goes
/// back to its queue, and nothing is counted as a deadlock or cancel
/// rollback. A lock-inheriting forward is no exception. The log stays failed
/// after the device is repaired, until the repository reopens.
#[test]
fn a_failed_log_fails_an_inheriting_forward_as_it_fails_a_reply() {
    let disks = RepoDisks::new();
    let reply: Handler = Arc::new(|_ctx, _req| Ok(HandlerOutcome::Reply(b"done".to_vec())));
    let inherit: Handler = Arc::new(|_ctx, req: &Request| {
        Ok(HandlerOutcome::ForwardInheriting {
            queue: "next".into(),
            request: req.clone(),
        })
    });
    let servers_on = |repo: &Arc<Repository>| {
        [("reply-in", &reply), ("inherit-in", &inherit)].map(|(q, handler)| {
            Server::new(
                Arc::clone(repo),
                ServerConfig::new(q, q),
                Arc::clone(handler),
            )
            .unwrap()
        })
    };
    let repo = Arc::new(Repository::open("failed-log", disks.clone()).unwrap().0);
    for q in ["reply-in", "inherit-in", "next", "reply.c"] {
        repo.create_queue_defaults(q).unwrap();
    }
    let api = LocalQm::new(Arc::clone(&repo));
    for q in ["reply-in", "inherit-in"] {
        api.register(q, "c", false).unwrap();
        let req = Request::new(Rid::new(q, 1), "reply.c", "op", vec![]);
        api.enqueue(q, "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
    }
    let servers = servers_on(&repo);

    disks.wal.fail();
    let [replied, inherited] = servers.each_ref().map(|s| s.run_once());
    let refused = |e: StorageError| Err(CoreError::Txn(TxnError::Storage(e)));
    assert_eq!(replied, refused(StorageError::DeviceFailed), "a reply");
    assert_eq!(
        inherited,
        refused(StorageError::LogFailed),
        "the inheriting forward's commit failed"
    );
    for s in &servers {
        assert_eq!(s.stats().rolled, 0, "a device error counted as a rollback");
        assert_eq!(s.stats().committed, 0);
    }

    disks.wal.repair();
    for s in &servers {
        assert_eq!(s.run_once(), refused(StorageError::LogFailed));
    }
    drop((servers, api, repo));
    let repo = Arc::new(Repository::open("failed-log", disks).unwrap().0);
    for s in &servers_on(&repo) {
        assert_eq!(s.run_once(), Ok(Served::Committed), "the request came back");
    }
    assert_eq!(LocalQm::new(repo).depth("next").unwrap(), 1);
}

/// A spawned server stops when its home partition's log fails: it returns
/// without `stop`, having run its handler a bounded number of times, where
/// it used to cycle every 10 ms — dequeue, handler, failed commit, unclaim.
#[test]
fn spawned_servers_stop_on_a_failed_log() {
    let (repo, _) = Repository::open("stops", RepoDisks::new()).unwrap();
    let repo = Arc::new(repo);
    for q in ["req", "reply.c"] {
        repo.create_queue_defaults(q).unwrap();
    }
    let api = LocalQm::new(Arc::clone(&repo));
    api.register("req", "c", false).unwrap();
    for serial in 1..=8 {
        let req = Request::new(Rid::new("c", serial), "reply.c", "op", vec![]);
        api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
    }
    // The first run fails the log under the pool.
    let runs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counted = Arc::clone(&runs);
    let handler: Handler = Arc::new(move |ctx, _req| {
        counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        ctx.repo.disks().wal.fail();
        Ok(HandlerOutcome::Reply(b"ok".to_vec()))
    });
    let (_, handles, stop) = rrq_core::server::spawn_pool(&repo, "req", 2, handler).unwrap();
    join_without_stop(handles, &stop);
    let runs = runs.load(std::sync::atomic::Ordering::SeqCst);
    // At most one failed commit per server, and one that committed
    // (deferred) in the other server's epoch before the failure.
    assert!((1..=3).contains(&runs), "the handler ran {runs} times");
}

/// Wait up to 10 s for every server of a pool to return on its own.
fn join_without_stop(
    handles: Vec<std::thread::JoinHandle<()>>,
    stop: &std::sync::atomic::AtomicBool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handles.iter().all(|h| h.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "a server kept serving a failed log"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(!stop.load(std::sync::atomic::Ordering::SeqCst));
}

/// A request whose reply queue lives on another partition meets that
/// partition's failed log at the reply's prepare, on a healthy home. The
/// spawned servers stop there instead of aborting the request again until
/// its retry limit moves it to the error queue; the reopen serves it once.
#[test]
fn spawned_servers_stop_on_a_failed_reply_partition() {
    let disks = RepoDisks::partitioned(2);
    let repo = Arc::new(Repository::open("reply-part", disks.clone()).unwrap().0);
    let home = repo.partition_of("req");
    let reply_q = (0..64)
        .map(|i| format!("reply.c{i}"))
        .find(|q| repo.partition_of(q) != home)
        .unwrap();
    let reply_log = disks.wal_groups[repo.partition_of(&reply_q)][0].clone();
    for q in ["req", reply_q.as_str()] {
        repo.create_queue_defaults(q).unwrap();
    }
    let api = LocalQm::new(Arc::clone(&repo));
    api.register("req", "c", false).unwrap();
    let req = Request::new(Rid::new("c", 1), reply_q.as_str(), "op", vec![]);
    api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
        .unwrap();
    reply_log.fail();

    let runs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counted = Arc::clone(&runs);
    let handler: Handler = Arc::new(move |_ctx, _req| {
        counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(HandlerOutcome::Reply(b"ok".to_vec()))
    });
    let (_, handles, stop) =
        rrq_core::server::spawn_pool(&repo, "req", 2, Arc::clone(&handler)).unwrap();
    join_without_stop(handles, &stop);
    let runs = runs.load(std::sync::atomic::Ordering::SeqCst);
    assert!((1..=2).contains(&runs), "the handler ran {runs} times");
    assert_eq!(api.depth("req").unwrap(), 1, "the request went back");
    assert!(
        api.depth("req.errors").unwrap_or(0) == 0,
        "moved to the errors"
    );

    drop((api, repo));
    reply_log.repair();
    let repo = Arc::new(Repository::open("reply-part", disks).unwrap().0);
    let server = Server::new(Arc::clone(&repo), ServerConfig::new("s", "req"), handler).unwrap();
    assert_eq!(server.run_once(), Ok(Served::Committed));
    let api = LocalQm::new(repo);
    assert_eq!(api.depth("req").unwrap(), 0);
    assert_eq!(api.depth(&reply_q).unwrap(), 1, "one reply");
}

/// `exactly_once_across_repeated_node_crashes` with the node's log failing
/// instead of the node crashing: each round fails every device of the log
/// (appends and syncs) or only its syncs (appends land unforced), lets the
/// servers meet the failure, repairs the device and restarts the node —
/// alternately keeping the unsynced bytes (a process restart) and dropping
/// them (a power cut). Every request is processed once, every reply arrives
/// once.
#[test]
fn exactly_once_across_repeated_failed_logs() {
    let handler_factory: Arc<dyn Fn() -> Handler + Send + Sync> = Arc::new(|| {
        EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            Ok(HandlerOutcome::Reply(
                format!("ok {}", req.rid).into_bytes(),
            ))
        }))
    });
    let mut node = ServerNodeSim::new(
        "failing",
        "req",
        2,
        vec!["req".into(), "reply.c".into()],
        handler_factory,
    );
    node.start().unwrap();

    const N: u64 = 20;
    let mut received = Vec::new();
    let mut sent = 0u64;
    let mut expected = Vec::new();
    let mut round = 0u64;
    while (received.len() as u64) < N {
        let api = LocalQm::new(node.repo());
        api.register("req", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        for _ in 0..4 {
            if sent < N {
                sent += 1;
                let rid = Rid::new("c", sent);
                expected.push(rid.clone());
                let req = Request::new(rid, "reply.c", "op", vec![]);
                api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                    .unwrap();
            }
        }
        std::thread::sleep(Duration::from_millis(10));
        let disks = node.repo().disks().clone();
        if round.is_multiple_of(2) {
            disks.wal.fail();
        } else {
            disks.wal.fail_syncs();
        }
        std::thread::sleep(Duration::from_millis(20));
        disks.wal.repair();
        if (round / 2).is_multiple_of(2) {
            node.shutdown();
        } else {
            node.crash();
        }
        round += 1;
        node.start().unwrap();
        let api = LocalQm::new(node.repo());
        while let Ok(elem) = api.dequeue(
            "reply.c",
            "c",
            DequeueOptions {
                block: Some(Duration::from_millis(400)),
                ..Default::default()
            },
        ) {
            let reply = Reply::decode_all(&elem.payload).unwrap();
            assert!(expected.contains(&reply.rid), "unknown reply {}", reply.rid);
            assert!(!received.contains(&reply.rid), "second reply {}", reply.rid);
            received.push(reply.rid);
            if received.len() as u64 == N {
                break;
            }
        }
        assert!(
            round < 40,
            "test runaway: {}/{N} after {round} rounds",
            received.len()
        );
    }

    let violations = EffectLedger::violations(&node.repo(), &expected).unwrap();
    assert!(violations.is_empty(), "{violations:?}");
    assert!(round >= 4, "both failures, both restarts");
}
