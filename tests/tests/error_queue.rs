//! The §5 termination guarantee end-to-end: a request whose handler always
//! aborts cannot cyclically restart the server forever — the error queue
//! catches it, and the reaper turns it into the §3 "we will not attempt this
//! any more" Failed reply, so the client's Receive completes.

use rrq_core::request::ReplyStatus;
use rrq_core::rid::Rid;
use rrq_core::server::{Handler, HandlerError, Served, Server, ServerConfig};
use rrq_qm::meta::QueueMeta;
use rrq_qm::repository::Repository;
use rrq_tests::local_clerk;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

#[test]
fn poisoned_request_gets_failed_reply_via_error_queue() {
    let repo = Arc::new(Repository::create("errq").unwrap());
    let mut meta = QueueMeta::with_defaults("req");
    meta.retry_limit = 3;
    repo.qm().create_queue(meta).unwrap();
    repo.create_queue_defaults("reply.c1").unwrap();

    let attempts = Arc::new(AtomicU32::new(0));
    let attempts2 = Arc::clone(&attempts);
    let handler: Handler = Arc::new(move |_ctx, _req| {
        attempts2.fetch_add(1, Ordering::Relaxed);
        Err(HandlerError::Abort("always fails".into()))
    });
    let server = Server::new(Arc::clone(&repo), ServerConfig::new("s", "req"), handler).unwrap();
    let reaper = Server::failed_reply_reaper(Arc::clone(&repo), "reaper", "req.errors").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let h1 = server.spawn(Arc::clone(&stop));
    let h2 = reaper.spawn(Arc::clone(&stop));

    let clerk = local_clerk(&repo, "c1");
    clerk.connect().unwrap();
    clerk
        .send("doomed", b"x".to_vec(), Rid::new("c1", 1))
        .unwrap();
    let reply = clerk.receive(b"").unwrap();
    assert_eq!(reply.rid, Rid::new("c1", 1), "request-reply matching holds");
    assert_eq!(reply.status, ReplyStatus::Failed);
    let msg = String::from_utf8_lossy(&reply.body).to_string();
    assert!(
        msg.contains("gave up") || msg.contains("exhausted"),
        "{msg}"
    );

    // Exactly retry_limit attempts, then it stopped — no cyclic restart.
    assert_eq!(attempts.load(Ordering::Relaxed), 3);
    assert_eq!(repo.qm().depth("req").unwrap(), 0);
    assert_eq!(repo.qm().depth("req.errors").unwrap(), 0, "reaped");

    stop.store(true, Ordering::Relaxed);
    h1.join().unwrap();
    h2.join().unwrap();
}

#[test]
fn healthy_requests_unaffected_by_poison_neighbours() {
    let repo = Arc::new(Repository::create("errq2").unwrap());
    let mut meta = QueueMeta::with_defaults("req");
    meta.retry_limit = 2;
    repo.qm().create_queue(meta).unwrap();
    repo.create_queue_defaults("reply.c1").unwrap();

    let handler: Handler = Arc::new(|_ctx, req| {
        if req.body == b"poison" {
            Err(HandlerError::Abort("bad".into()))
        } else {
            Ok(rrq_core::server::HandlerOutcome::Reply(req.body.clone()))
        }
    });
    let server = Server::new(Arc::clone(&repo), ServerConfig::new("s", "req"), handler).unwrap();
    let reaper = Server::failed_reply_reaper(Arc::clone(&repo), "reaper", "req.errors").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let h1 = server.spawn(Arc::clone(&stop));
    let h2 = reaper.spawn(Arc::clone(&stop));

    let clerk = local_clerk(&repo, "c1");
    clerk.connect().unwrap();
    // poison, then good — the poison must not wedge the queue.
    clerk
        .send("op", b"poison".to_vec(), Rid::new("c1", 1))
        .unwrap();
    let r1 = clerk.receive(b"").unwrap();
    assert_eq!(r1.status, ReplyStatus::Failed);
    clerk
        .send("op", b"good".to_vec(), Rid::new("c1", 2))
        .unwrap();
    let r2 = clerk.receive(b"").unwrap();
    assert_eq!(r2.status, ReplyStatus::Ok);
    assert_eq!(r2.body, b"good");

    stop.store(true, Ordering::Relaxed);
    h1.join().unwrap();
    h2.join().unwrap();
}

/// A server's configured name is only a name: a server named `!failed!x`
/// runs its own handler and replies `Ok`.
#[test]
fn a_server_named_like_a_reaper_runs_its_handler() {
    let repo = Arc::new(Repository::create("errq3").unwrap());
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults("reply.c1").unwrap();
    let handler: Handler =
        Arc::new(|_ctx, req| Ok(rrq_core::server::HandlerOutcome::Reply(req.body.clone())));
    let server = Server::new(
        Arc::clone(&repo),
        ServerConfig::new("!failed!x", "req"),
        handler,
    )
    .unwrap();

    let clerk = local_clerk(&repo, "c1");
    clerk.connect().unwrap();
    clerk
        .send("echo", b"hello".to_vec(), Rid::new("c1", 1))
        .unwrap();
    assert_eq!(server.run_once().unwrap(), Served::Committed);
    let reply = clerk.receive(b"").unwrap();
    assert_eq!(reply.status, ReplyStatus::Ok);
    assert_eq!(reply.body, b"hello");
    assert_eq!(server.stats().rejected, 0);
}
