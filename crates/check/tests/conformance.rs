//! End-to-end protocol conformance: the Fig 1 / Fig 5 state machines must
//! hold over real E1-style (client crash sweep) and E4-style (server pool
//! throughput) runs, with a checker attached to the repository's handle.

use rrq_check::protocol::{ClientEvent, Conformance, ServerEvent};
use rrq_core::api::{LocalQm, QmApi};
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::device::TicketPrinter;
use rrq_core::request::{Reply, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{spawn_pool, Handler, HandlerOutcome};
use rrq_obs::Obs;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::Repository;
use rrq_sim::driver::{ClientCrashDriver, CrashPoint};
use rrq_sim::schedule::CrashSchedule;
use rrq_storage::codec::{Decode, Encode};
use rrq_workload::bank;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn mk_repo(name: &str, queues: &[&str]) -> Arc<Repository> {
    let repo = Arc::new(Repository::create(name).unwrap());
    for q in queues {
        repo.create_queue_defaults(q).unwrap();
    }
    repo
}

fn mk_clerk(repo: &Arc<Repository>, client: &str) -> Clerk {
    let api = Arc::new(LocalQm::new(Arc::clone(repo)));
    let mut cfg = ClerkConfig::new(client, "req");
    cfg.reply_queue = format!("reply.{client}");
    cfg.receive_block = Duration::from_secs(20);
    Clerk::new(api, cfg)
}

/// One E1-style run: a crash driver against a 2-server pool, with the
/// conformance observer watching every clerk and server transition.
fn e1_run(name: &str, schedule: CrashSchedule, n: u64) {
    let repo = mk_repo(name, &["req", "reply.c"]);
    let conf = Conformance::attach(repo.obs());
    let handler: rrq_core::server::Handler = Arc::new(|_ctx, req| {
        Ok(HandlerOutcome::Reply(
            format!("r{}", req.rid.serial).into_bytes(),
        ))
    });
    let (_servers, handles, stop) = spawn_pool(&repo, "req", 2, handler).unwrap();
    let driver = ClientCrashDriver::new(|| mk_clerk(&repo, "c"), "op");
    let mut printer = TicketPrinter::new();
    let report = driver
        .run(n, |s| schedule.get(s), |s| vec![s as u8], &mut printer)
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(report.completed, n, "every request completes");
    let (client_events, server_events) = conf.events_seen();
    assert!(client_events > 0, "clerk transitions were observed");
    assert!(server_events > 0, "server transitions were observed");
    conf.assert_conformant();
}

#[test]
fn e1_crashless_run_is_conformant() {
    e1_run("conf-e1-none", CrashSchedule::none(), 12);
}

#[test]
fn e1_crash_after_send_is_conformant() {
    e1_run(
        "conf-e1-send",
        CrashSchedule::every(8, CrashPoint::AfterSend),
        8,
    );
}

#[test]
fn e1_crash_after_receive_is_conformant() {
    e1_run(
        "conf-e1-recv",
        CrashSchedule::every(8, CrashPoint::AfterReceive),
        8,
    );
}

#[test]
fn e1_crash_after_process_is_conformant() {
    e1_run(
        "conf-e1-proc",
        CrashSchedule::every(8, CrashPoint::AfterProcess),
        8,
    );
}

#[test]
fn e1_random_crash_sweep_is_conformant() {
    e1_run("conf-e1-rand", CrashSchedule::random(16, 0.5, 42), 16);
}

/// E4-style run: a 4-server pool draining the bank workload, including the
/// abort/retry path (flaky handler), all under the conformance observer.
#[test]
fn e4_pool_run_with_aborts_is_conformant() {
    let repo = mk_repo("conf-e4", &["req", "reply.c"]);
    let conf = Conformance::attach(repo.obs());
    bank::seed_accounts(&repo, 8, 10_000).unwrap();
    let (_servers, handles, stop) =
        spawn_pool(&repo, "req", 4, bank::flaky_transfer_handler(3)).unwrap();

    let api = LocalQm::new(Arc::clone(&repo));
    api.register("req", "c", false).unwrap();
    api.register("reply.c", "c", false).unwrap();
    let n = 24u64;
    for serial in 1..=n {
        let t = bank::Transfer {
            from: (serial % 8) as u32,
            to: ((serial + 3) % 8) as u32,
            amount: 100,
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

    assert_eq!(bank::total_money(&repo, 8).unwrap(), 80_000);
    let (_, server_events) = conf.events_seen();
    assert!(server_events > 0, "server transitions were observed");
    conf.assert_conformant();
}

/// Two nodes in one process, each with a clerk named `c1` and a checker of
/// its own, serving side by side: each checker hears its own node's clerk
/// and servers only, so neither sees a `Receive` from a `c1` it never saw
/// connect.
#[test]
fn same_named_clerks_on_two_nodes_are_checked_apart() {
    let run = |name: &str| {
        let repo = mk_repo(name, &["req", "reply.c1"]);
        let conf = Conformance::attach(repo.obs());
        let echo: Handler = Arc::new(|_ctx, req| Ok(HandlerOutcome::Reply(req.body.clone())));
        let (_servers, handles, stop) = spawn_pool(&repo, "req", 1, echo).unwrap();
        let clerk = mk_clerk(&repo, "c1");
        clerk.connect().unwrap();
        for serial in 1..=20 {
            let rid = Rid::new("c1", serial);
            let reply = clerk.transceive("echo", vec![], rid.clone(), b"").unwrap();
            assert_eq!(reply.rid, rid);
        }
        clerk.disconnect().unwrap();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        // Connect, 20 sends, 20 receives, disconnect: this clerk's alone.
        assert_eq!(conf.events_seen().0, 42);
        conf.assert_conformant();
    };
    std::thread::scope(|s| {
        s.spawn(|| run("conf-twin-a"));
        s.spawn(|| run("conf-twin-b"));
    });
}

/// Negative control: an illegal emitted sequence must be reported, and the
/// violation must carry the offending event trace.
#[test]
fn illegal_server_sequence_is_reported_with_trace() {
    let obs = Obs::default();
    let conf = Conformance::attach(&obs);
    obs.server_event("neg-s", || ServerEvent::Dequeue { rid: "c:1".into() });
    // Dequeue while already Processing: no Fig 5 transition allows it.
    obs.server_event("neg-s", || ServerEvent::Dequeue { rid: "c:2".into() });
    let violations = conf.violations();
    assert_eq!(violations.len(), 1, "exactly one illegal transition");
    let rendered = violations[0].to_string();
    assert!(rendered.contains("neg-s"), "violation names the server");
    assert!(
        rendered.contains("event trace"),
        "violation dumps the offending trace: {rendered}"
    );
}

#[test]
fn illegal_client_sequence_is_reported_with_trace() {
    let obs = Obs::default();
    let conf = Conformance::attach(&obs);
    // Send without Connect: illegal from Disconnected (Fig 1).
    obs.client_event("neg-c", || ClientEvent::Send {
        rid: "neg-c:1".into(),
        acked: true,
    });
    let violations = conf.violations();
    assert_eq!(violations.len(), 1);
    assert!(violations[0].to_string().contains("neg-c"));
}
