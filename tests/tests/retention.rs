//! What the clerk needs of a dequeued reply is kept, and nothing else: the
//! reply of the last `Receive` is readable (`Rereceive`, Fig 2) across a
//! crash and a checkpoint until the next `Receive` replaces it, and a
//! repository that has served a thousand requests holds what one that has
//! served one request holds. What a round trip leaves in the log is one
//! record per commit point, each holding its transaction's write set, and
//! no row a restart could rebuild.

use rrq_core::api::LocalQm;
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::rid::Rid;
use rrq_core::server::{Served, Server, ServerConfig};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_storage::codec::Reader;
use rrq_storage::disk::Disk;
use rrq_storage::wal::{RecordKind, Wal};
use rrq_storage::WriteOp;
use rrq_tests::echo_handler;
use rrq_workload::bank::{self, Transfer};
use std::sync::Arc;
use std::time::Duration;

const CLIENT: &str = "c1";

fn open(disks: &RepoDisks) -> Arc<Repository> {
    let (repo, _) = Repository::open("retention", disks.clone()).unwrap();
    let repo = Arc::new(repo);
    for queue in ["req", "reply.c1"] {
        if repo.qm().queue_meta(queue).is_err() {
            repo.create_queue_defaults(queue).unwrap();
        }
    }
    repo
}

fn clerk(repo: &Arc<Repository>) -> Clerk {
    let api = Arc::new(LocalQm::new(Arc::clone(repo)));
    let mut cfg = ClerkConfig::new(CLIENT, "req");
    cfg.receive_block = Duration::from_millis(200);
    Clerk::new(api, cfg)
}

fn server(repo: &Arc<Repository>) -> Arc<Server> {
    Server::new(
        Arc::clone(repo),
        ServerConfig::new("s0", "req"),
        echo_handler(),
    )
    .unwrap()
}

fn body(serial: u64) -> Vec<u8> {
    format!("request {serial}").into_bytes()
}

/// Send, serve inline, receive: one request through the whole pipeline.
fn transceive(clerk: &Clerk, server: &Server, serial: u64) {
    clerk
        .send("echo", body(serial), Rid::new(CLIENT, serial))
        .unwrap();
    assert_eq!(server.run_once().unwrap(), Served::Committed);
    let reply = clerk.receive(&serial.to_le_bytes()).unwrap();
    assert_eq!(reply.rid, Rid::new(CLIENT, serial));
    assert_eq!(reply.body, body(serial));
}

fn assert_self_checks(repo: &Repository) {
    assert_eq!(repo.qm().retention_divergence().unwrap(), None);
    assert_eq!(repo.qm().index_divergence().unwrap(), None);
}

#[test]
fn a_thousand_transceives_leave_the_store_as_large_as_one() {
    let repo = open(&RepoDisks::new());
    let (clerk, server) = (clerk(&repo), server(&repo));
    clerk.connect().unwrap();
    transceive(&clerk, &server, 1);
    let keys = repo.store().committed_len();
    for serial in 2..=1000 {
        transceive(&clerk, &server, serial);
    }
    assert_eq!(repo.store().committed_len(), keys);
    let retained = repo.store().scan_prefix(None, b"d/").unwrap();
    assert_eq!(retained.len(), 1, "the last reply, for Rereceive");
    assert_eq!(clerk.rereceive().unwrap().body, body(1000));
    assert_self_checks(&repo);
    clerk.disconnect().unwrap();
    assert!(repo.store().scan_prefix(None, b"d/").unwrap().is_empty());
    assert_self_checks(&repo);
}

/// The key an op writes (a move's source), readable in a failure message.
fn first_key(op: &WriteOp) -> String {
    match op {
        WriteOp::Put { key, .. } | WriteOp::Delete { key } | WriteOp::Move { from: key, .. } => {
            String::from_utf8_lossy(key).into_owned()
        }
    }
}

#[test]
fn a_round_trip_writes_one_log_record_per_commit_point() {
    // Send (the clerk's transaction), serve (the server's), receive (the
    // clerk's again): three commit points, three records, three device
    // writes, whatever the handler writes. In steady state the receive also
    // retires the previous reply.
    let transfer = Transfer {
        from: 0,
        to: 1,
        amount: 5,
    };
    // Ops per round trip: the request and the reply enqueued, their
    // registrations, the request deleted, the reply moved to `d/` and the
    // reply before it deleted — plus the transfer's two accounts and its
    // clearing row.
    let shapes = [
        ("echo", echo_handler(), b"ping".to_vec(), 7),
        (
            "transfer",
            bank::single_txn_handler(),
            transfer.encode(),
            10,
        ),
    ];
    for (op, handler, body, ops_per_round_trip) in shapes {
        let disks = RepoDisks::new();
        let repo = open(&disks);
        bank::seed_accounts(&repo, 2, 1_000).unwrap();
        let clerk = clerk(&repo);
        let server =
            Server::new(Arc::clone(&repo), ServerConfig::new("s0", "req"), handler).unwrap();
        clerk.connect().unwrap();
        let round_trip = |serial: u64| {
            clerk
                .send(op, body.clone(), Rid::new(CLIENT, serial))
                .unwrap();
            assert_eq!(server.run_once().unwrap(), Served::Committed);
            clerk.receive(&serial.to_le_bytes()).unwrap();
        };
        round_trip(1);
        repo.obs().start();
        let device_writes = disks.wal.stats().appends;
        let from = disks.wal.len();
        round_trip(2);
        let snap = repo.obs().snapshot();
        assert_eq!(snap.counter("storage.wal.appends"), 3, "{op}");
        assert_eq!(snap.counter("storage.wal.commit_records"), 3, "{op}");
        assert_eq!(disks.wal.stats().appends - device_writes, 3, "{op}");
        // And each record holds only what recovery cannot rebuild: no row
        // maps an eid to its element.
        let mut ops = Vec::new();
        Wal::new(Arc::new(disks.wal.clone()))
            .scan_with(from, |_, _, kind, payload| {
                assert_eq!(kind, RecordKind::Commit, "{op}");
                ops.extend(WriteOp::decode_list(&mut Reader::new(payload))?);
                Ok(())
            })
            .unwrap();
        let shown: Vec<_> = ops.iter().map(first_key).collect();
        assert_eq!(ops.len(), ops_per_round_trip, "{op}: {shown:?}");
        assert!(shown.iter().all(|k| !k.starts_with("x/")), "{op}");
    }
}

#[test]
fn rereceive_returns_the_reply_after_a_crash_and_after_a_checkpoint() {
    for checkpoint in [false, true] {
        let disks = RepoDisks::new();
        let repo = open(&disks);
        let (c, s) = (clerk(&repo), server(&repo));
        c.connect().unwrap();
        transceive(&c, &s, 1);
        transceive(&c, &s, 2);
        // The window between a Receive and the next Send: the reply is out
        // of its queue and the client has not said it is done with it.
        if checkpoint {
            repo.checkpoint().unwrap();
        }
        drop((c, s));
        drop(repo);
        disks.crash();

        let repo = open(&disks);
        assert_self_checks(&repo);
        let c = clerk(&repo);
        let info = c.connect().unwrap();
        assert_eq!(info.s_rid, Some(Rid::new(CLIENT, 2)));
        assert_eq!(info.r_rid, Some(Rid::new(CLIENT, 2)));
        assert_eq!(info.ckpt, Some(2u64.to_le_bytes().to_vec()));
        let again = c.rereceive().unwrap();
        assert_eq!(again.rid, Rid::new(CLIENT, 2), "checkpoint: {checkpoint}");
        assert_eq!(again.body, body(2));
        // And the pipeline carries on: the next Receive takes its place.
        let s = server(&repo);
        transceive(&c, &s, 3);
        assert_eq!(c.rereceive().unwrap().body, body(3));
        assert_eq!(repo.store().scan_prefix(None, b"d/").unwrap().len(), 1);
        assert_self_checks(&repo);
    }
}
