//! A partition-local request touches no sibling partition (see
//! `repo_xpart_crash.rs` for the battery this belongs to). A file, so a
//! process, of its own: it asserts on process-global counters that any
//! sibling test's servers would bump (ROADMAP item 1).

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::clerk::{Clerk, ClerkConfig, SendMode};
use rrq_core::request::Reply;
use rrq_core::rid::Rid;
use rrq_qm::repository::{RepoDisks, RepoOptions, Repository};
use rrq_qm::route::partition_of;
use std::sync::Arc;

/// A partition-local request must touch exactly one partition: zero
/// cross-partition enlistments, zero two-phase rounds, zero sibling lock
/// grants, zero bytes forced to any sibling WAL. Asserted over a full
/// clerk→server round trip with request and reply queues co-located.
#[test]
fn partition_local_request_never_touches_siblings() {
    const PARTS: usize = 4;
    // "req" and "reply.c1" provably share a home at four partitions — the
    // whole round trip (request enqueue, server dequeue+reply, client
    // dequeue) is partition-local by placement.
    assert_eq!(
        partition_of("req", PARTS),
        partition_of("reply.c1", PARTS),
        "test premise: request and reply queues co-located"
    );
    let obs = rrq_obs::Session::start();

    let opts = RepoOptions {
        repo_partitions: PARTS,
        ..RepoOptions::default()
    };
    let (repo, _) = Repository::open_with("local", RepoDisks::new(), opts).unwrap();
    let repo = Arc::new(repo);
    for q in ["req", "reply.c1"] {
        repo.create_queue_defaults(q).unwrap();
    }
    let home = repo.partition_of("req");
    let siblings: Vec<usize> = (0..PARTS).filter(|&p| p != home).collect();
    let base: Vec<(u64, (u64, u64), u64)> = siblings
        .iter()
        .map(|&p| {
            let tm = repo.tm_at(p);
            let s = tm.locks().stats();
            (
                repo.store_at(p).wal_len(),
                repo.store_at(p).txn_counts(),
                s.immediate_grants + s.waited_grants,
            )
        })
        .collect();

    let server = rrq_core::server::Server::new(
        Arc::clone(&repo),
        rrq_core::server::ServerConfig::new("local-s0", "req"),
        Arc::new(|_ctx, req: &rrq_core::request::Request| {
            Ok(rrq_core::server::HandlerOutcome::Reply(req.body.clone()))
        }),
    )
    .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let t = server.spawn(Arc::clone(&stop));

    let api: Arc<dyn QmApi> = Arc::new(LocalQm::new(Arc::clone(&repo)));
    let mut ccfg = ClerkConfig::new("c1", "req");
    ccfg.send_mode = SendMode::Acked;
    let clerk = Clerk::new(api, ccfg);
    clerk.connect().unwrap();
    for serial in 1..=8u64 {
        let rid = Rid::new("c1", serial);
        clerk
            .send("echo", format!("p{serial}").into_bytes(), rid.clone())
            .unwrap();
        let reply: Reply = clerk.receive(&[]).unwrap();
        assert_eq!(reply.rid, rid);
    }
    clerk.disconnect().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Release);
    t.join().unwrap();

    let snap = obs.snapshot();
    for c in [
        "route.xpart.enlists",
        "txn.twophase.rounds",
        "txn.twophase.decisions",
        "txn.xpart.commits",
        "txn.xpart.aborts",
    ] {
        assert_eq!(snap.counter(c), 0, "partition-local requests bumped {c}");
    }
    for (i, &p) in siblings.iter().enumerate() {
        let tm = repo.tm_at(p);
        let s = tm.locks().stats();
        assert_eq!(
            repo.store_at(p).wal_len(),
            base[i].0,
            "sibling p{p} WAL grew — a partition-local request forced it"
        );
        assert_eq!(
            repo.store_at(p).txn_counts(),
            base[i].1,
            "sibling p{p} saw transactions"
        );
        assert_eq!(
            s.immediate_grants + s.waited_grants,
            base[i].2,
            "sibling p{p} granted locks"
        );
    }
}
