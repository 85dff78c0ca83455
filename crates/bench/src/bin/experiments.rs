//! The experiment harness: regenerates every experiment in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p rrq-bench --bin experiments            # all
//! cargo run --release -p rrq-bench --bin experiments -- e3 e9   # a subset
//! cargo run --release -p rrq-bench --bin experiments -- --quick # smaller sweeps
//! ```
//!
//! Each experiment prints a markdown table; EXPERIMENTS.md records the
//! paper-claim vs. the measured shape.

use rrq_bench::app_lock::AppLockTable;
use rrq_bench::designs::{self, DesignWorkload};
use rrq_bench::fmt_rate;
use rrq_core::api::{LocalQm, QmApi};
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::client::ReplyProcessor;
use rrq_core::conversation::IoLog;
use rrq_core::device::TicketPrinter;
use rrq_core::pipeline::{Pipeline, Serializability, StageFn, StageResult};
use rrq_core::remote::{QmRpcServer, RemoteQm};
use rrq_core::request::{Reply, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{spawn_pool, Handler, HandlerError, HandlerOutcome, Server, ServerConfig};
use rrq_net::NetworkBus;
use rrq_obs::Obs;
use rrq_qm::meta::{OrderingMode, QueueMeta};
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_sim::driver::{ClientCrashDriver, CrashPoint};
use rrq_sim::node::ServerNodeSim;
use rrq_sim::oracle::EffectLedger;
use rrq_sim::schedule::CrashSchedule;
use rrq_storage::codec::Encode;
use rrq_storage::disk::{CrashStyle, SimDisk};
use rrq_storage::kv::KvStore;
use rrq_txn::LockKey;
use rrq_workload::arrivals::{bursty_arrivals, ZipfSelector};
use rrq_workload::bank::{self, Transfer};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scale {
    /// Multiplier applied to request counts (quick mode halves twice).
    n: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale {
        n: if quick { 1 } else { 4 },
    };
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let run = |id: &str| wanted.is_empty() || wanted.iter().any(|w| w == id);

    println!("# Recoverable-request experiments (quick={quick})\n");
    if run("e1") {
        e1_client_resync(&scale);
    }
    if run("e2") {
        e2_queue_ops();
    }
    if run("e3") {
        e3_design_comparison(&scale);
    }
    if run("e4") {
        e4_end_to_end(&scale);
    }
    if run("e5") {
        e5_multi_txn(&scale);
    }
    if run("e6") {
        e6_request_serializability(&scale);
    }
    if run("e7") {
        e7_cancellation(&scale);
    }
    if run("e8") {
        e8_interactive(&scale);
    }
    if run("e9") {
        e9_dequeue_ordering(&scale);
    }
    if run("e10") {
        e10_registration(&scale);
    }
    if run("e11") {
        e11_burst_and_load_sharing(&scale);
    }
    if run("e12") {
        e12_send_modes(&scale);
    }
    if run("e13") {
        e13_storage(&scale);
    }
    if run("e14") {
        e14_testable_device(&scale);
    }
    if run("e19") {
        e19_checkpoint_recovery();
    }
    if run("e21") {
        e21_partition_scaling(&scale);
    }
    if run("e22") {
        e22_epoch_commit(&scale);
    }
}

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

// ======================================================================
// E1 — Fig 1/2: client resynchronization under crash-probability sweep
// ======================================================================
fn e1_client_resync(scale: &Scale) {
    println!("## E1 — client resynchronization (Figs 1–2)\n");
    println!("| crash prob | requests | incarnations | resync recv | resync reproc | already done | dup prints | exactly-once |");
    println!("|-----------:|---------:|-------------:|------------:|--------------:|-------------:|-----------:|:-------------|");
    let n = 10 * scale.n;
    for prob in [0.0, 0.25, 0.5, 0.9] {
        let name = format!("e1-{}", (prob * 100.0) as u32);
        let repo = mk_repo(&name, &["req", "reply.c"]);
        let handler = EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            Ok(HandlerOutcome::Reply(
                format!("r{}", req.rid.serial).into_bytes(),
            ))
        }));
        let (_s, handles, stop) = spawn_pool(&repo, "req", 2, handler).unwrap();
        let schedule = CrashSchedule::random(n, prob, 42);
        let driver = ClientCrashDriver::new(|| mk_clerk(&repo, "c"), "op");
        let mut printer = TicketPrinter::new();
        let report = driver
            .run(n, |s| schedule.get(s), |s| vec![s as u8], &mut printer)
            .unwrap();
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let expected: Vec<Rid> = (1..=n).map(|s| Rid::new("c", s)).collect();
        let violations = EffectLedger::violations(&repo, &expected).unwrap();
        println!(
            "| {prob:>10.2} | {n:>8} | {:>12} | {:>11} | {:>13} | {:>12} | {:>10} | {} |",
            report.incarnations,
            report.resync_received,
            report.resync_reprocessed,
            report.resync_already_processed,
            if printer.has_duplicate_prints() {
                "YES"
            } else {
                "0"
            },
            if violations.is_empty() {
                "HOLDS"
            } else {
                "VIOLATED"
            },
        );
    }
    println!();
}

// ======================================================================
// E2 — Fig 3: queue operation latencies (quick in-binary timing)
// ======================================================================
fn e2_queue_ops() {
    println!("## E2 — queue operation latency (Fig 3)\n");
    println!("| operation | µs/op |");
    println!("|:----------|------:|");
    let repo = mk_repo("e2", &["q"]);
    let (h, _) = repo.qm().register("q", "c", false).unwrap();
    let iters = 2_000u32;

    let t0 = Instant::now();
    for _ in 0..iters {
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                b"payload-64-bytes",
                EnqueueOptions::default(),
            )
        })
        .unwrap();
    }
    println!(
        "| Enqueue (txn commit incl.) | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / iters as f64
    );

    let t0 = Instant::now();
    for _ in 0..iters {
        repo.autocommit(|t| {
            repo.qm()
                .dequeue(t.id().raw(), &h, DequeueOptions::default())
        })
        .unwrap();
    }
    println!(
        "| Dequeue (txn commit incl.) | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / iters as f64
    );

    let eid = repo
        .autocommit(|t| {
            repo.qm()
                .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())
        })
        .unwrap();
    let t0 = Instant::now();
    for _ in 0..iters {
        repo.qm().read(eid).unwrap();
    }
    println!(
        "| Read                       | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / iters as f64
    );

    // Read and KillElement find a live element by walking `e/`: their cost
    // at depth 10 000, for elements the walk reaches last.
    let deep = repo
        .autocommit(|t| {
            (0..10_000)
                .map(|_| {
                    repo.qm()
                        .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .unwrap();
    let last = *deep.last().unwrap();
    let walks = 200;
    let t0 = Instant::now();
    for _ in 0..walks {
        repo.qm().read(last).unwrap();
    }
    println!(
        "| Read, depth 10 000         | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / walks as f64
    );
    let t0 = Instant::now();
    for &eid in deep.iter().rev().take(walks) {
        assert!(repo.qm().kill_element(eid).unwrap());
    }
    println!(
        "| KillElement, depth 10 000  | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / walks as f64
    );

    let t0 = Instant::now();
    for _ in 0..500 {
        repo.qm().register("q", "c", false).unwrap();
    }
    println!(
        "| Register (existing)        | {:>5.1} |",
        t0.elapsed().as_micros() as f64 / 500.0
    );
    println!();
}

// ======================================================================
// E3 — §2: one-txn vs two-txn vs queued three-txn designs
// ======================================================================
fn e3_design_comparison(scale: &Scale) {
    println!("## E3 — §2 design comparison (think time under locks)\n");
    println!("| think ms | one-txn req/s | two-txn req/s | queued req/s | one-txn conflicts |");
    println!("|---------:|--------------:|--------------:|-------------:|------------------:|");
    for think_ms in [0u64, 2, 5, 10] {
        let w = DesignWorkload {
            accounts: 2,
            clients: 8,
            requests_per_client: (3 * scale.n) as usize,
            think: Duration::from_millis(think_ms),
            seed: 11,
        };
        let r1 = {
            let repo = Arc::new(Repository::create(format!("e3-one-{think_ms}")).unwrap());
            designs::seed_accounts(&repo, w.accounts).unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(30));
            designs::run_one_txn(&repo, &w).unwrap()
        };
        let r2 = {
            let repo = Arc::new(Repository::create(format!("e3-two-{think_ms}")).unwrap());
            designs::seed_accounts(&repo, w.accounts).unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(30));
            designs::run_two_txn(&repo, &w).unwrap()
        };
        let r3 = {
            let repo = Arc::new(Repository::create(format!("e3-q-{think_ms}")).unwrap());
            designs::seed_accounts(&repo, w.accounts).unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(30));
            designs::run_queued(&repo, &w, 4).unwrap()
        };
        println!(
            "| {think_ms:>8} | {} | {} | {} | {:>17} |",
            fmt_rate(r1.throughput),
            fmt_rate(r2.throughput),
            fmt_rate(r3.throughput),
            r1.lock_conflicts
        );
    }
    println!();
}

// ======================================================================
// E4 — Figs 4/5: end-to-end throughput; exactly-once under node crashes
// ======================================================================
fn e4_end_to_end(scale: &Scale) {
    println!("## E4 — system-model throughput and server-crash tolerance (Figs 4–5)\n");
    println!("| servers | req/s |");
    println!("|--------:|------:|");
    let n = (60 * scale.n) as usize;
    for servers in [1usize, 2, 4, 8] {
        let repo = mk_repo(&format!("e4-{servers}"), &["req", "reply.c"]);
        let handler: Handler = Arc::new(|_ctx, req| {
            // A small CPU cost so servers matter.
            std::thread::sleep(Duration::from_micros(300));
            Ok(HandlerOutcome::Reply(req.body.clone()))
        });
        let (_s, handles, stop) = spawn_pool(&repo, "req", servers, handler).unwrap();
        let api = LocalQm::new(Arc::clone(&repo));
        api.register("req", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let t0 = Instant::now();
        for i in 0..n {
            let req = Request::new(Rid::new("c", i as u64 + 1), "reply.c", "op", vec![]);
            api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                .unwrap();
        }
        for _ in 0..n {
            api.dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(60)),
                    ..Default::default()
                },
            )
            .unwrap();
        }
        let rate = n as f64 / t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        println!("| {servers:>7} | {} |", fmt_rate(rate));
    }

    println!("\n| node crashes | requests | replies | exactly-once |");
    println!("|-------------:|---------:|--------:|:-------------|");
    let handler_factory: Arc<dyn Fn() -> Handler + Send + Sync> = Arc::new(|| {
        EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            Ok(HandlerOutcome::Reply(req.body.clone()))
        }))
    });
    let mut node = ServerNodeSim::new(
        "e4-crashy",
        "req",
        2,
        vec!["req".into(), "reply.c".into()],
        handler_factory,
    );
    node.start().unwrap();
    let total = 8 * scale.n;
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut expected = Vec::new();
    while received < total {
        let api = LocalQm::new(node.repo());
        api.register("req", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        while sent < total && sent < received + 4 {
            sent += 1;
            let rid = Rid::new("c", sent);
            expected.push(rid.clone());
            let req = Request::new(rid, "reply.c", "op", vec![]);
            api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        node.crash();
        node.start().unwrap();
        let api = LocalQm::new(node.repo());
        while received < total {
            match api.dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_millis(300)),
                    ..Default::default()
                },
            ) {
                Ok(_) => received += 1,
                Err(_) => break,
            }
        }
    }
    let violations = EffectLedger::violations(&node.repo(), &expected).unwrap();
    println!(
        "| {:>12} | {total:>8} | {received:>7} | {} |",
        node.crash_count(),
        if violations.is_empty() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    println!();
}

// ======================================================================
// E5 — Fig 6 / §6: multi-transaction requests vs one long transaction
// ======================================================================
fn e5_multi_txn(scale: &Scale) {
    println!(
        "## E5 — funds transfer: one long transaction vs three chained transactions (Fig 6)\n"
    );
    println!("The paper's motivation for multi-transaction requests is lock contention:");
    println!("the long transaction holds BOTH account locks for the whole request, the");
    println!("pipeline holds each lock for one stage only. Accounts are hot (4 total).\n");
    println!("| stage cost µs | single-txn req/s | 3-txn pipeline req/s | pipeline/single |");
    println!("|--------------:|-----------------:|---------------------:|----------------:|");
    let n = 20 * scale.n;
    const ACCOUNTS: u32 = 4;
    for stage_us in [0u64, 500, 2000] {
        // Single fat transaction: the per-stage work happens while both
        // account locks are held.
        let single = {
            let repo = mk_repo(&format!("e5-s-{stage_us}"), &["req", "reply.c"]);
            repo.qm()
                .update_queue("req", |m| m.retry_limit = 0)
                .unwrap();
            repo.tm().set_lock_timeout(Duration::from_secs(60));
            bank::seed_accounts(&repo, ACCOUNTS, 1_000_000).unwrap();
            let inner = bank::single_txn_handler();
            let handler: Handler = Arc::new(move |ctx, req| {
                let out = inner(ctx, req)?; // takes both locks
                std::thread::sleep(Duration::from_micros(3 * stage_us));
                Ok(out)
            });
            let (_s, handles, stop) = spawn_pool(&repo, "req", 3, handler).unwrap();
            let rate = drive_transfers(&repo, "req", n, ACCOUNTS);
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
            rate
        };
        // Three-transaction pipeline: each stage holds one account lock for
        // one stage's worth of work.
        let pipelined = {
            let repo = mk_repo(&format!("e5-p-{stage_us}"), &["x0", "x1", "x2", "reply.c"]);
            for q in ["x0", "x1", "x2"] {
                repo.qm().update_queue(q, |m| m.retry_limit = 0).unwrap();
            }
            repo.tm().set_lock_timeout(Duration::from_secs(60));
            bank::seed_accounts(&repo, ACCOUNTS, 1_000_000).unwrap();
            let base = bank::transfer_pipeline(["x0", "x1", "x2"], Serializability::None);
            let inner = base.stage_fn;
            let stage_fn: StageFn = Arc::new(move |ctx, req, i| {
                let out = inner(ctx, req, i)?; // takes this stage's lock
                std::thread::sleep(Duration::from_micros(stage_us));
                Ok(out)
            });
            let pipeline = Pipeline {
                queues: base.queues,
                stage_fn,
                mode: Serializability::None,
            };
            let servers = pipeline.build_servers(&repo).unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = servers.iter().map(|s| s.spawn(Arc::clone(&stop))).collect();
            let rate = drive_transfers(&repo, "x0", n, ACCOUNTS);
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
            rate
        };
        println!(
            "| {stage_us:>13} | {} | {} | {:>15.2} |",
            fmt_rate(single),
            fmt_rate(pipelined),
            pipelined / single
        );
    }
    println!();
}

fn drive_transfers(repo: &Arc<Repository>, entry: &str, n: u64, accounts: u32) -> f64 {
    let api = LocalQm::new(Arc::clone(repo));
    api.register(entry, "c", false).unwrap();
    api.register("reply.c", "c", false).unwrap();
    let t0 = Instant::now();
    for i in 0..n {
        let from = (i % accounts as u64) as u32;
        let t = Transfer {
            from,
            to: (from + 1) % accounts,
            amount: 10,
        };
        let req = Request::new(Rid::new("c", i + 1), "reply.c", "transfer", t.encode());
        api.enqueue(entry, "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
    }
    for _ in 0..n {
        api.dequeue(
            "reply.c",
            "c",
            DequeueOptions {
                block: Some(Duration::from_secs(120)),
                ..Default::default()
            },
        )
        .unwrap();
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

// ======================================================================
// E6 — §6: request-level serializability mechanisms
// ======================================================================
fn e6_request_serializability(scale: &Scale) {
    println!(
        "## E6 — request serializability: none vs lock inheritance vs application locks (§6)\n"
    );
    println!("| contention θ | none req/s | inherit-locks req/s | app-locks req/s |");
    println!("|-------------:|-----------:|--------------------:|----------------:|");
    let n = 10 * scale.n;
    for theta in [0.0f64, 0.7, 0.95] {
        let mut rates = Vec::new();
        for mode_name in ["none", "inherit", "applock"] {
            let repo = mk_repo(
                &format!("e6-{mode_name}-{}", (theta * 100.0) as u32),
                &["x0", "x1", "x2", "reply.c"],
            );
            // Busy app-locks abort and retry; never exile to the error
            // queue, and rotate retried elements to the back so a blocked
            // head cannot livelock the stage (see pipeline docs).
            for q in ["x0", "x1", "x2"] {
                repo.qm()
                    .update_queue(q, |m| {
                        m.retry_limit = 0;
                        m.requeue_at_back_on_abort = true;
                    })
                    .unwrap();
            }
            bank::seed_accounts(&repo, 32, 1_000_000).unwrap();
            // Short lock waits: with lock inheritance, a stage server can
            // block behind locks parked by a request queued BEHIND the one
            // it is processing (head-of-line inversion); a quick timeout
            // aborts the stage so the queue reorders and progress resumes.
            repo.tm().set_lock_timeout(Duration::from_millis(100));
            let pipeline = match mode_name {
                "none" => bank::transfer_pipeline(["x0", "x1", "x2"], Serializability::None),
                "inherit" => {
                    bank::transfer_pipeline(["x0", "x1", "x2"], Serializability::InheritLocks)
                }
                _ => app_lock_pipeline(&repo),
            };
            // Two servers per stage: required for progress under lock
            // inheritance (see Pipeline::build_servers_pool docs) and the
            // same for every mode so the comparison stays fair.
            let servers = pipeline.build_servers_pool(&repo, 2).unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = servers.iter().map(|s| s.spawn(Arc::clone(&stop))).collect();

            let api = LocalQm::new(Arc::clone(&repo));
            api.register("x0", "c", false).unwrap();
            api.register("reply.c", "c", false).unwrap();
            let mut zipf = ZipfSelector::new(32, theta, 99);
            let t0 = Instant::now();
            for i in 0..n {
                let from = zipf.next() as u32;
                let to = (zipf.next() as u32 + 1) % 32;
                let t = Transfer {
                    from,
                    to: if to == from { (to + 1) % 32 } else { to },
                    amount: 5,
                };
                let req = Request::new(Rid::new("c", i + 1), "reply.c", "transfer", t.encode());
                api.enqueue("x0", "c", &req.encode_to_vec(), EnqueueOptions::default())
                    .unwrap();
            }
            for i in 0..n {
                let r = api.dequeue(
                    "reply.c",
                    "c",
                    DequeueOptions {
                        block: Some(Duration::from_secs(30)),
                        ..Default::default()
                    },
                );
                if let Err(e) = r {
                    for q in ["x0", "x1", "x2", "reply.c"] {
                        eprintln!(
                            "E6 DIAG mode={mode_name} θ={theta} reply {i}/{n}: depth({q}) = {:?}",
                            api.depth(q)
                        );
                    }
                    panic!("E6 reply dequeue failed: {e:?}");
                }
            }
            rates.push(n as f64 / t0.elapsed().as_secs_f64());
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().unwrap();
            }
        }
        println!(
            "| {theta:>12.2} | {} | {} | {} |",
            fmt_rate(rates[0]),
            fmt_rate(rates[1]),
            fmt_rate(rates[2])
        );
    }
    println!();
}

/// A transfer pipeline using the §6 persistent application-lock table:
/// stage 0 locks both accounts for the request; the final stage releases.
fn app_lock_pipeline(repo: &Arc<Repository>) -> Pipeline {
    let table = Arc::new(AppLockTable::new(Arc::clone(repo.store())));
    let stage_fn: StageFn = Arc::new(move |ctx, req, i| {
        let t = Transfer::decode(&req.body).map_err(|e| HandlerError::Reject(e.to_string()))?;
        let txn = ctx.txn.id().raw();
        match i {
            0 => {
                for acct in [t.from, t.to] {
                    let got = table
                        .acquire(txn, &format!("acct-{acct}"), &req.rid)
                        .map_err(|e| HandlerError::Abort(e.to_string()))?;
                    if !got {
                        return Err(HandlerError::Abort("app lock busy".into()));
                    }
                }
                adjust_balance(ctx, t.from, -t.amount)?;
                Ok(StageResult::Next(vec![]))
            }
            1 => {
                adjust_balance(ctx, t.to, t.amount)?;
                Ok(StageResult::Next(vec![]))
            }
            _ => {
                table
                    .release_all(txn, &req.rid)
                    .map_err(|e| HandlerError::Abort(e.to_string()))?;
                Ok(StageResult::Done(b"transferred".to_vec()))
            }
        }
    });
    Pipeline {
        queues: vec!["x0".into(), "x1".into(), "x2".into()],
        stage_fn,
        mode: Serializability::None,
    }
}

fn adjust_balance(
    ctx: &rrq_core::server::ServerCtx<'_>,
    acct: u32,
    delta: i64,
) -> Result<(), HandlerError> {
    let key = format!("bank/acct/{acct:08}").into_bytes();
    ctx.txn
        .lock_exclusive(&LockKey::new(bank::BANK_NS, key.clone()))
        .map_err(|e| HandlerError::Abort(e.to_string()))?;
    let txn = ctx.txn.id().raw();
    let bal = ctx
        .repo
        .store()
        .get(Some(txn), &key)
        .map_err(|e| HandlerError::Abort(e.to_string()))?
        .map(|raw| i64::from_le_bytes(raw.try_into().unwrap_or([0; 8])))
        .unwrap_or(0);
    ctx.repo
        .store()
        .put(txn, &key, &(bal + delta).to_le_bytes())
        .map_err(|e| HandlerError::Abort(e.to_string()))
}

// ======================================================================
// E7 — §7: cancellation success vs request progress
// ======================================================================
fn e7_cancellation(scale: &Scale) {
    println!("## E7 — cancellation window (§7)\n");
    println!("| cancel delay ms | cancelled | too late | effects committed |");
    println!("|----------------:|----------:|---------:|------------------:|");
    let per_point = 4 * scale.n;
    for delay_ms in [0u64, 5, 20, 60] {
        let repo = mk_repo(&format!("e7-{delay_ms}"), &["req", "reply.c"]);
        let handler = EffectLedger::instrument(Arc::new(|_ctx, req: &Request| {
            std::thread::sleep(Duration::from_millis(15)); // processing time
            Ok(HandlerOutcome::Reply(req.body.clone()))
        }));
        let (_s, handles, stop) = spawn_pool(&repo, "req", 1, handler).unwrap();
        let clerk = mk_clerk(&repo, "c");
        clerk.connect().unwrap();
        let mut cancelled = 0u64;
        let mut too_late = 0u64;
        for i in 0..per_point {
            clerk.send("op", vec![], Rid::new("c", i + 1)).unwrap();
            std::thread::sleep(Duration::from_millis(delay_ms));
            if clerk.cancel_last_request().unwrap() {
                cancelled += 1;
                // No reply will come; proceed directly.
            } else {
                too_late += 1;
                let _ = clerk.receive(b"").unwrap();
            }
            // Drain any stray replies (cancel raced with the reply enqueue).
            while repo.qm().depth("reply.c").unwrap_or(0) > 0 {
                let _ = repo.autocommit(|t| {
                    let (h, _) = repo.qm().register("reply.c", "c", true)?;
                    repo.qm()
                        .dequeue(t.id().raw(), &h, DequeueOptions::default())
                });
            }
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let effects = EffectLedger::counts(&repo).unwrap().len() as u64;
        println!("| {delay_ms:>15} | {cancelled:>9} | {too_late:>8} | {effects:>17} |");
    }
    println!();
}

// ======================================================================
// E8 — §8: interactive requests
// ======================================================================
fn e8_interactive(scale: &Scale) {
    println!("## E8 — interactive requests: I/O-log replay under server aborts (§8.3)\n");
    println!("| aborts per request | rounds | user asked | replayed | divergences |");
    println!("|-------------------:|-------:|-----------:|---------:|------------:|");
    let rounds = 3u32;
    for aborts in [0u32, 1, 3] {
        let bus = NetworkBus::new(31 + aborts as u64);
        let repo = mk_repo(&format!("e8-{aborts}"), &["req", "reply.c"]);
        let log = Arc::new(IoLog::new());
        let asked = Arc::new(AtomicU32::new(0));
        let asked2 = Arc::clone(&asked);
        let user: rrq_core::conversation::UserFn = Arc::new(move |p| {
            asked2.fetch_add(1, Ordering::AcqRel);
            p.to_vec()
        });
        let _guard = rrq_core::conversation::spawn_conversation_endpoint(
            &bus,
            "conv-client",
            Arc::clone(&log),
            user,
        );
        let attempts = Arc::new(AtomicU32::new(0));
        let attempts2 = Arc::clone(&attempts);
        let bus2 = bus.clone();
        let handler: Handler = Arc::new(move |_ctx, req| {
            use rrq_core::conversation::{Conversation, RpcConversation};
            let n = attempts2.fetch_add(1, Ordering::AcqRel);
            let rpc =
                rrq_net::rpc::RpcClient::new(&bus2, &format!("conv-srv-{}-{n}", req.rid.serial));
            let mut conv = RpcConversation::new(rpc, "conv-client", req.rid.to_attr());
            let mut collected = Vec::new();
            for r in 0..rounds {
                let input = conv.solicit(format!("q{r}?").as_bytes())?;
                collected.extend_from_slice(&input);
            }
            if n < aborts {
                return Err(HandlerError::Abort("injected".into()));
            }
            Ok(HandlerOutcome::Reply(collected))
        });
        // Raise the retry limit so injected aborts never exile the request.
        repo.qm()
            .update_queue("req", |m| m.retry_limit = 50)
            .unwrap();
        let (_s, handles, stop) = spawn_pool(&repo, "req", 1, handler).unwrap();

        let n_requests = scale.n.max(2);
        let clerk = mk_clerk(&repo, "c");
        clerk.connect().unwrap();
        for i in 0..n_requests {
            // Reset per-request attempt counter so each request aborts
            // `aborts` times.
            attempts.store(0, Ordering::Release);
            clerk
                .send("converse", vec![], Rid::new("c", i + 1))
                .unwrap();
            let _ = clerk.receive(b"").unwrap();
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        let s = log.stats();
        println!(
            "| {aborts:>18} | {rounds:>6} | {:>10} | {:>8} | {:>11} |",
            asked.load(Ordering::Acquire),
            s.replayed,
            s.divergences
        );
    }
    println!();
}

// ======================================================================
// E9 — §10: skip-locked vs strict-FIFO dequeue under concurrency
// ======================================================================
fn e9_dequeue_ordering(scale: &Scale) {
    println!("## E9 — dequeue ordering: skip-locked vs strict FIFO (§10)\n");
    println!("| dequeuers | skip-locked el/s | strict-FIFO el/s | skip/strict |");
    println!("|----------:|-----------------:|-----------------:|------------:|");
    let elements = (150 * scale.n) as usize;
    for threads in [1usize, 2, 4, 8] {
        let mut rates = Vec::new();
        for mode in [OrderingMode::SkipLocked, OrderingMode::StrictFifo] {
            let repo = Arc::new(Repository::create(format!("e9-{threads}-{mode:?}")).unwrap());
            let mut meta = QueueMeta::with_defaults("q");
            meta.mode = mode;
            repo.qm().create_queue(meta).unwrap();
            let (h, _) = repo.qm().register("q", "filler", false).unwrap();
            for i in 0..elements {
                repo.autocommit(|t| {
                    repo.qm().enqueue(
                        t.id().raw(),
                        &h,
                        &i.to_le_bytes(),
                        EnqueueOptions::default(),
                    )
                })
                .unwrap();
            }
            let t0 = Instant::now();
            let mut handles = Vec::new();
            for d in 0..threads {
                let repo = Arc::clone(&repo);
                handles.push(rrq_core::threads::spawn_named(
                    format!("e13-d{d}"),
                    move || {
                        let (h, _) = repo.qm().register("q", &format!("d{d}"), false).unwrap();
                        loop {
                            // Process the element INSIDE the transaction, so its
                            // write lock is held for the duration of the work —
                            // the situation §10's ordering discussion is about.
                            let r = repo.autocommit(|t| {
                                let e = repo.qm().dequeue(
                                    t.id().raw(),
                                    &h,
                                    DequeueOptions::default(),
                                )?;
                                std::thread::sleep(Duration::from_micros(300));
                                Ok(e)
                            });
                            if r.is_err() {
                                return;
                            }
                        }
                    },
                ));
            }
            for hd in handles {
                hd.join().unwrap();
            }
            rates.push(elements as f64 / t0.elapsed().as_secs_f64());
        }
        println!(
            "| {threads:>9} | {} | {} | {:>11.2} |",
            fmt_rate(rates[0]),
            fmt_rate(rates[1]),
            rates[0] / rates[1]
        );
    }
    println!();
}

// ======================================================================
// E10 — §4.3: persistent-registration cost and recovery fidelity
// ======================================================================
fn e10_registration(scale: &Scale) {
    println!("## E10 — persistent registration: cost and recovery (§4.3)\n");
    let iters = (500 * scale.n) as u32;
    let repo = mk_repo("e10-cost", &["q"]);
    let (h, _) = repo.qm().register("q", "c", true).unwrap();
    let t0 = Instant::now();
    for _ in 0..iters {
        repo.autocommit(|t| {
            repo.qm()
                .enqueue(t.id().raw(), &h, b"x", EnqueueOptions::default())
        })
        .unwrap();
    }
    let untagged = t0.elapsed().as_micros() as f64 / iters as f64;
    let t0 = Instant::now();
    for i in 0..iters {
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                b"x",
                EnqueueOptions {
                    tag: Some((i as u64).to_le_bytes().to_vec()),
                    ..Default::default()
                },
            )
        })
        .unwrap();
    }
    let tagged = t0.elapsed().as_micros() as f64 / iters as f64;
    println!("| variant | µs/op |");
    println!("|:--------|------:|");
    println!("| enqueue, no tag          | {untagged:>5.1} |");
    println!("| enqueue + stable tag     | {tagged:>5.1} |");
    println!(
        "| overhead                 | {:>4.0}% |",
        (tagged / untagged - 1.0) * 100.0
    );

    // Recovery fidelity: crash after every tagged op; re-register must
    // return exactly the last committed tag.
    let cycles = 10 * scale.n;
    let disks = rrq_qm::repository::RepoDisks::new();
    let mut correct = 0u64;
    for i in 0..cycles {
        let (repo, _) = Repository::open("e10-rec", disks.clone()).unwrap();
        let repo = Arc::new(repo);
        let _ = repo.create_queue_defaults("q");
        let (h, reg) = repo.qm().register("q", "c", true).unwrap();
        // Check the previous incarnation's tag.
        let expected_prev = if i == 0 {
            None
        } else {
            Some((i - 1).to_le_bytes().to_vec())
        };
        if reg.tag == expected_prev {
            correct += 1;
        }
        repo.autocommit(|t| {
            repo.qm().enqueue(
                t.id().raw(),
                &h,
                b"x",
                EnqueueOptions {
                    tag: Some(i.to_le_bytes().to_vec()),
                    ..Default::default()
                },
            )
        })
        .unwrap();
        drop(repo);
        disks.crash();
    }
    println!("\ncrash/reopen cycles: {cycles}; tags recovered correctly: {correct}/{cycles}\n");
}

// ======================================================================
// E11 — §1: burst absorption and load sharing
// ======================================================================
fn e11_burst_and_load_sharing(scale: &Scale) {
    println!("## E11 — burst absorption and load sharing (§1)\n");
    let n = (40 * scale.n) as usize;
    let arrivals = bursty_arrivals(n, 10, 20_000.0, 30, 5);
    let repo = mk_repo("e11", &["req", "reply.c"]);
    let handler: Handler = Arc::new(|_ctx, req| {
        std::thread::sleep(Duration::from_millis(2)); // fixed service time
        Ok(HandlerOutcome::Reply(req.body.clone()))
    });
    let (servers, handles, stop) = spawn_pool(&repo, "req", 4, handler).unwrap();
    let api = LocalQm::new(Arc::clone(&repo));
    api.register("req", "c", false).unwrap();
    api.register("reply.c", "c", false).unwrap();

    let t0 = Instant::now();
    let mut max_depth = 0usize;
    for (i, &at_us) in arrivals.iter().enumerate() {
        let target = Duration::from_micros(at_us);
        if let Some(wait) = target.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let req = Request::new(Rid::new("c", i as u64 + 1), "reply.c", "op", vec![]);
        api.enqueue("req", "c", &req.encode_to_vec(), EnqueueOptions::default())
            .unwrap();
        max_depth = max_depth.max(api.depth("req").unwrap_or(0));
    }
    for _ in 0..n {
        api.dequeue(
            "reply.c",
            "c",
            DequeueOptions {
                block: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        )
        .unwrap();
    }
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let shares: Vec<u64> = servers.iter().map(|s| s.stats().committed).collect();
    let busiest = *shares.iter().max().unwrap() as f64;
    let idlest = *shares.iter().min().unwrap() as f64;
    println!("| metric | value |");
    println!("|:-------|------:|");
    println!("| bursty arrivals          | {n} |");
    println!("| max queue depth observed | {max_depth} |");
    println!("| all replies delivered    | yes |");
    println!("| per-server shares        | {shares:?} |");
    println!(
        "| share imbalance (max/min) | {:.2} |",
        if idlest > 0.0 {
            busiest / idlest
        } else {
            f64::INFINITY
        }
    );
    println!();
}

// ======================================================================
// E12 — §5: Send transport modes (message accounting)
// ======================================================================
fn e12_send_modes(scale: &Scale) {
    println!("## E12 — Send acknowledgement modes (§5)\n");
    println!("| mode | requests | rpc calls | one-way msgs | msgs/request |");
    println!("|:-----|---------:|----------:|-------------:|-------------:|");
    let n = 10 * scale.n;
    for mode in ["acked", "one-way"] {
        let bus = NetworkBus::new(37);
        let repo = mk_repo(&format!("e12-{mode}"), &["req", "reply.c"]);
        let _guard = QmRpcServer::spawn(&bus, "qm", Arc::clone(&repo));
        let (_s, handles, stop) = spawn_pool(
            &repo,
            "req",
            1,
            Arc::new(|_ctx, req: &Request| Ok(HandlerOutcome::Reply(req.body.clone()))),
        )
        .unwrap();

        let remote = Arc::new(RemoteQm::new(&bus, &format!("cl-{mode}"), "qm"));
        let counts_handle = Arc::clone(&remote);
        let mut cfg = ClerkConfig::new("c", "req");
        cfg.reply_queue = "reply.c".into();
        cfg.send_mode = if mode == "acked" {
            rrq_core::clerk::SendMode::Acked
        } else {
            rrq_core::clerk::SendMode::OneWay
        };
        cfg.receive_block = Duration::from_secs(30);
        let clerk = Clerk::new(remote, cfg);
        clerk.connect().unwrap();
        let (base_calls, base_oneway) = counts_handle.message_counts();
        for i in 0..n {
            clerk.send("op", vec![], Rid::new("c", i + 1)).unwrap();
            let _ = clerk.receive(b"").unwrap();
        }
        let (calls, oneway) = counts_handle.message_counts();
        let total = (calls - base_calls) * 2 + (oneway - base_oneway);
        println!(
            "| {mode} | {n:>8} | {:>9} | {:>12} | {:>12.2} |",
            calls - base_calls,
            oneway - base_oneway,
            total as f64 / n as f64
        );
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
    }
    println!();
}

// ======================================================================
// E13 — §10: main-memory queue storage
// ======================================================================
fn e13_storage(scale: &Scale) {
    println!("## E13 — storage design point (§10)\n");
    println!("| queue | enqueue commit µs | dequeue commit µs | log bytes / op | found after crash + reopen |");
    println!("|:------|------------------:|------------------:|---------------:|---------------------------:|");
    let iters = 2_000 * scale.n;
    // Enqueued beyond what is dequeued again: what a crash has to find.
    let kept = 100;
    for (name, durable) in [
        ("durable (forced log)", true),
        ("volatile (main memory)", false),
    ] {
        let disks = RepoDisks::new();
        let (repo, _) = Repository::open("e13", disks.clone()).unwrap();
        let mut meta = QueueMeta::with_defaults("q");
        meta.durable = durable;
        repo.qm().create_queue(meta).unwrap();
        let (h, _) = repo.qm().register("q", "c", false).unwrap();
        let logged = repo.store().wal_len();
        let t0 = Instant::now();
        for _ in 0..iters + kept {
            repo.autocommit(|t| {
                repo.qm().enqueue(
                    t.id().raw(),
                    &h,
                    b"element-payload",
                    EnqueueOptions::default(),
                )
            })
            .unwrap();
        }
        let enq_us = t0.elapsed().as_micros() as f64 / (iters + kept) as f64;
        let t0 = Instant::now();
        for _ in 0..iters {
            repo.autocommit(|t| {
                repo.qm()
                    .dequeue(t.id().raw(), &h, DequeueOptions::default())
            })
            .unwrap();
        }
        let deq_us = t0.elapsed().as_micros() as f64 / iters as f64;
        let log_bytes = (repo.store().wal_len() - logged) / (2 * iters + kept);
        drop(repo);
        disks.crash();
        let (repo, _) = Repository::open("e13", disks).unwrap();
        let found = repo.qm().depth("q").unwrap();
        println!(
            "| {name} | {enq_us:>17.2} | {deq_us:>17.2} | {log_bytes:>14} | {found:>16} of {kept} |"
        );
    }
    println!();
}

// ======================================================================
// E14 — §3: testable devices and exactly-once reply processing
// ======================================================================
fn e14_testable_device(scale: &Scale) {
    println!("## E14 — exactly-once reply processing needs a testable device (§3)\n");
    println!("| device | crashes after process | duplicate prints |");
    println!("|:-------|----------------------:|-----------------:|");
    let n = 5 * scale.n;

    // A printer that is NOT testable: it cannot answer "did I print this?".
    struct DumbPrinter {
        printed: Vec<Rid>,
    }
    impl ReplyProcessor for DumbPrinter {
        fn checkpoint(&mut self) -> Vec<u8> {
            Vec::new()
        }
        fn process(&mut self, rid: &Rid, _reply: &Reply) {
            self.printed.push(rid.clone());
        }
        fn already_processed(&mut self, _rid: &Rid, _ckpt: Option<&[u8]>) -> bool {
            false // can't tell → must assume not processed (at-least-once)
        }
    }

    for device in ["dumb printer", "testable printer"] {
        let repo = mk_repo(
            &format!("e14-{}", device.replace(' ', "-")),
            &["req", "reply.c"],
        );
        let (_s, handles, stop) = spawn_pool(
            &repo,
            "req",
            1,
            Arc::new(|_ctx, req: &Request| Ok(HandlerOutcomeReply(req))),
        )
        .unwrap();
        let schedule = CrashSchedule::every(n, CrashPoint::AfterProcess);
        let driver = ClientCrashDriver::new(|| mk_clerk(&repo, "c"), "op");
        let duplicates = if device == "dumb printer" {
            let mut p = DumbPrinter {
                printed: Vec::new(),
            };
            driver
                .run(n, |s| schedule.get(s), |_| vec![], &mut p)
                .unwrap();
            let mut sorted = p.printed.clone();
            sorted.sort();
            sorted.dedup();
            p.printed.len() - sorted.len()
        } else {
            let mut p = TicketPrinter::new();
            driver
                .run(n, |s| schedule.get(s), |_| vec![], &mut p)
                .unwrap();
            let mut rids: Vec<_> = p.printed().iter().map(|(_, r, _)| r.clone()).collect();
            let before = rids.len();
            rids.sort();
            rids.dedup();
            before - rids.len()
        };
        println!("| {device} | {n:>21} | {duplicates:>16} |");
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
    }
    println!();
}

#[allow(non_snake_case)]
fn HandlerOutcomeReply(req: &Request) -> HandlerOutcome {
    HandlerOutcome::Reply(format!("done {}", req.rid).into_bytes())
}

// ======================================================================
// E19 — checkpoints: recovery time vs history length
// ======================================================================

/// Per-sector device latency for the recovery measurements (`SimDisk`
/// charges it per 512 bytes a read delivers: 2.5 MB/s, a disk of the paper's
/// day). That makes recovery wall time proportional to the *bytes the log
/// device must deliver* — the real-world cost — instead of to CPU time.
const E19_READ_LATENCY: Duration = Duration::from_micros(200);

/// Commit `commits` single-key transactions, checkpointing every
/// `ckpt_every` commits if asked, then crash both devices (clean power loss:
/// volatile bytes drop, synced bytes survive).
fn e19_history(commits: u64, ckpt_every: Option<u64>) -> (SimDisk, SimDisk) {
    let wal = SimDisk::new();
    let ckpt = SimDisk::new();
    let (store, _) = KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(ckpt.clone()),
        Obs::default(),
    )
    .unwrap();
    for i in 0..commits {
        let token = i + 1;
        store.begin(token).unwrap();
        let key = [b'k', (i % 251) as u8, (i / 251) as u8];
        store.put(token, &key, &i.to_le_bytes()).unwrap();
        store.commit(token).unwrap();
        if let Some(every) = ckpt_every {
            if token % every == 0 {
                store.checkpoint().unwrap();
            }
        }
    }
    drop(store);
    wal.crash(CrashStyle::DropVolatile);
    ckpt.crash(CrashStyle::DropVolatile);
    (wal, ckpt)
}

/// Reopen crashed devices with per-read latency on the log and time the
/// recovery. Returns (wall time, redo records replayed).
fn e19_recover(wal: &SimDisk, ckpt: &SimDisk) -> (Duration, usize) {
    wal.set_latency(Duration::ZERO, E19_READ_LATENCY);
    let t0 = Instant::now();
    let (store, report) = KvStore::open(
        Arc::new(wal.clone()),
        Arc::new(ckpt.clone()),
        Obs::default(),
    )
    .unwrap();
    let elapsed = t0.elapsed();
    drop(store);
    (elapsed, report.replayed)
}

fn e19_checkpoint_recovery() {
    println!("## E19 — checkpoints: recovery vs history length\n");
    println!("Do checkpoints bound recovery by the log tail since the last");
    println!("checkpoint rather than by history length?\n");

    let mut json = String::from("{\n  \"experiment\": \"E19\",\n  \"recovery\": [\n");

    // Lengths ≡ 100 (mod 250): every history ends 100 commits past its last
    // checkpoint, so the checkpointed store has the *same* tail to replay
    // at every length — the flat line is the claim.
    let histories: &[u64] = &[600, 2100, 8100];
    let ckpt_every = 250;
    println!("### Recovery time vs history length (one log, 200µs/sector read)\n");
    println!("| committed txns | no ckpt: recovery | no ckpt: redo | ckpt every {ckpt_every}: recovery | ckpt: redo |");
    println!("|---------------:|------------------:|--------------:|--------------------------:|-----------:|");
    let mut flat = Vec::new();
    let mut growing = Vec::new();
    for (i, &n) in histories.iter().enumerate() {
        let (wal, ckpt) = e19_history(n, None);
        let (t_none, redo_none) = e19_recover(&wal, &ckpt);
        let (wal, ckpt) = e19_history(n, Some(ckpt_every));
        let (t_ckpt, redo_ckpt) = e19_recover(&wal, &ckpt);
        growing.push(t_none);
        flat.push(t_ckpt);
        println!(
            "| {n:>14} | {:>15.1}ms | {redo_none:>13} | {:>23.1}ms | {redo_ckpt:>10} |",
            t_none.as_secs_f64() * 1e3,
            t_ckpt.as_secs_f64() * 1e3
        );
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"commits\": {n}, \"no_ckpt_ms\": {:.2}, \"no_ckpt_redo\": {redo_none}, \"ckpt_ms\": {:.2}, \"ckpt_redo\": {redo_ckpt}}}",
            t_none.as_secs_f64() * 1e3,
            t_ckpt.as_secs_f64() * 1e3
        ));
    }
    // The checkpointed store replays at most `ckpt_every` transactions no
    // matter how long the history is; the uncheckpointed one replays all of
    // them. Recovery time must reflect that shape.
    let spread = flat.last().unwrap().as_secs_f64() / flat[0].as_secs_f64().max(1e-9);
    println!(
        "\nCheckpointed recovery stays within {spread:.1}x across a {}x history spread;",
        histories.last().unwrap() / histories[0]
    );
    println!(
        "uncheckpointed grows {:.1}x.\n",
        growing.last().unwrap().as_secs_f64() / growing[0].as_secs_f64().max(1e-9)
    );
    json.push_str("\n  ]\n}\n");

    std::fs::write("BENCH_PR7.json", &json).unwrap();
    println!("Series written to BENCH_PR7.json.\n");
}

// ======================================================================
// E21 — shared-nothing repository partitions: scaling sweep
// ======================================================================

/// A repository named `name` on `parts` partitions whose log devices charge
/// `force` per sync.
fn open_forcing(name: &str, parts: usize, force: Duration) -> Arc<Repository> {
    let disks = RepoDisks::partitioned(parts);
    for wal in disks.wal_groups.iter().flatten() {
        wal.set_latency(force, Duration::ZERO);
    }
    Arc::new(Repository::open(name, disks).unwrap().0)
}

/// Device syncs and the force calls they covered, summed over every
/// partition's log since it opened (`GroupCommitStats::{groups, requests}`).
fn log_forces(repo: &Repository) -> (u64, u64) {
    (0..repo.partitions())
        .map(|p| repo.store_at(p).group_commit_stats())
        .fold((0, 0), |(syncs, records), s| {
            (syncs + s.groups, records + s.requests)
        })
}

/// What a timed section cost the logs, between two [`log_forces`] readings:
/// (syncs per request served, records per sync).
fn force_counts(before: (u64, u64), after: (u64, u64), requests: u64) -> (f64, f64) {
    let (syncs, records) = (after.0 - before.0, after.1 - before.1);
    (
        syncs as f64 / requests.max(1) as f64,
        records as f64 / syncs.max(1) as f64,
    )
}

/// Find (and create) a queue homed on partition `p`, deterministically.
fn e21_queue_on(repo: &Repository, p: usize, tag: &str) -> String {
    for j in 0..256 {
        let q = format!("{tag}x{j}");
        if repo.partition_of(&q) == p {
            repo.create_queue_defaults(&q).unwrap();
            return q;
        }
    }
    panic!("no queue name for partition {p} in 256 tries");
}

/// One E21 cell: 8 workers drive a fixed offered load of bank payments
/// against a cluster of `parts` shared-nothing partitions. Each payment
/// updates the payer's balance on its home store and enqueues a credit
/// record — to a co-located queue normally, to a queue on the *next*
/// partition for `cross_pct`% of payments (a logged two-phase commit).
/// Alternating ops consume the worker's own queue, so depths stay bounded.
/// Every commit pays a 100µs WAL force, shared with whoever else on the
/// partition reaches its commit point meanwhile (group commit): what a
/// partition adds is a log of its own to force. Returns (requests per
/// second, syncs per request, records per sync) of the timed section.
fn e21_run(name: &str, parts: usize, cross_pct: u64, per_worker: u64) -> (f64, f64, f64) {
    const WORKERS: usize = 8;
    let repo = open_forcing(name, parts, Duration::from_micros(100));
    let locals: Vec<String> = (0..WORKERS)
        .map(|w| e21_queue_on(&repo, w % parts, &format!("l{w}")))
        .collect();
    let remotes: Vec<String> = (0..WORKERS)
        .map(|w| e21_queue_on(&repo, (w + 1) % parts, &format!("r{w}")))
        .collect();

    let before = log_forces(&repo);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let repo = Arc::clone(&repo);
            let src = locals[w].clone();
            let far = remotes[w].clone();
            s.spawn(move || {
                let reg = format!("w{w}");
                let (hs, _) = repo.qm_for(&src).register(&src, &reg, false).unwrap();
                let (hf, _) = repo.qm_for(&far).register(&far, &reg, false).unwrap();
                let acct = format!("acct/{w}").into_bytes();
                for i in 0..per_worker {
                    let (txn, home) = repo.begin_on(&src).unwrap();
                    let t = txn.id().raw();
                    if i % 2 == 0 {
                        if i % 100 < cross_pct {
                            let qm = repo.enlist_queue(&txn, home, &far).unwrap();
                            qm.enqueue(t, &hf, b"pay", EnqueueOptions::default())
                                .unwrap();
                        } else {
                            repo.qm_for(&src)
                                .enqueue(t, &hs, b"pay", EnqueueOptions::default())
                                .unwrap();
                        }
                    } else {
                        let _ = repo.qm_for(&src).dequeue(t, &hs, DequeueOptions::default());
                    }
                    repo.store_at(home).put(t, &acct, &i.to_le_bytes()).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let requests = WORKERS as u64 * per_worker;
    let (syncs, records) = force_counts(before, log_forces(&repo), requests);
    (requests as f64 / elapsed, syncs, records)
}

fn e21_partition_scaling(scale: &Scale) {
    println!("## E21 — shared-nothing repository partitions: bank scaling sweep\n");
    println!("Fixed offered load (8 workers), partitions 1 → 8, every commit");
    println!("forcing a 100µs WAL write that it shares with the commits its");
    println!("partition's other workers reach meanwhile (group commit). A");
    println!("partition owns its queues, its log, its locks and its store, so");
    println!("payments on different partitions never wait for one force. The 10%");
    println!("cross-partition column routes every tenth payment to a sibling's");
    println!("queue through the logged two-phase protocol — the price of");
    println!("leaving the shared-nothing fast path. Next to each rate: device");
    println!("syncs per request and records per sync over every partition's log,");
    println!("exact counts where the wall-clock rates are not reproducible (E35).\n");

    let parts: &[usize] = &[1, 2, 4, 8];
    let per_worker = 600 * scale.n;
    let trials = 2;
    let mut json = String::from("{\n  \"experiment\": \"E21\",\n  \"series\": [\n");
    println!("| partitions | 0% cross req/s | syncs/req | records/sync | vs 1p | 10% cross req/s | syncs/req | records/sync | vs 1p | 10% / 0% |");
    println!("|-----------:|---------------:|----------:|-------------:|------:|----------------:|----------:|-------------:|------:|---------:|");
    let mut first = true;
    let mut base_by_cross = [0.0f64; 2];
    for &p in parts {
        let mut cells = [(0.0f64, 0.0f64, 0.0f64); 2];
        for (ci, &cross) in [0u64, 10].iter().enumerate() {
            for t in 0..trials {
                let r = e21_run(&format!("e21-p{p}-c{cross}-{t}"), p, cross, per_worker);
                if r.0 > cells[ci].0 {
                    cells[ci] = r;
                }
            }
            if p == 1 {
                base_by_cross[ci] = cells[ci].0;
            }
        }
        let [(r0, s0, g0), (r1, s1, g1)] = cells;
        println!(
            "| {p:>10} | {:>14} | {s0:>9.3} | {g0:>12.2} | {:>4.2}x | {:>15} | {s1:>9.3} | {g1:>12.2} | {:>4.2}x | {:>7.2}x |",
            fmt_rate(r0),
            r0 / base_by_cross[0],
            fmt_rate(r1),
            r1 / base_by_cross[1],
            r1 / r0,
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"partitions\": {p}, \"cross0_req_per_sec\": {r0:.1}, \"cross0_syncs_per_req\": {s0:.4}, \"cross0_records_per_sync\": {g0:.3}, \"cross10_req_per_sec\": {r1:.1}, \"cross10_syncs_per_req\": {s1:.4}, \"cross10_records_per_sync\": {g1:.3}}}"
        ));
    }
    json.push_str("\n  ]\n}\n");
    println!();

    std::fs::write("BENCH_PR9.json", &json).unwrap();
    println!("Series written to BENCH_PR9.json.\n");
}

// ======================================================================
// E22 — epoch commit vs per-request commit on the server loop
// ======================================================================

/// Deterministic E22 workload: `hot_pct`% of transfers draw both accounts
/// from a 2-account hot set (every pair conflicts and half the lock orders
/// can deadlock), the rest spread uniformly over the cold majority.
fn e22_fill(repo: &Repository, seed: u64, n: u64, hot_pct: u64, accounts: u32) {
    use rrq_workload::arrivals::SplitMix;
    let mut rng = SplitMix::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let (h, _) = repo.qm().register("req", "fill", false).unwrap();
    for serial in 1..=n {
        let hot = rng.next_u64() % 100 < hot_pct;
        let span = if hot { 2 } else { u64::from(accounts) };
        let base = if hot { 0 } else { 2 };
        let from = base + (rng.next_u64() % span) as u32 % accounts;
        let to = base + (rng.next_u64() % span) as u32 % accounts;
        let t = Transfer {
            from,
            to,
            amount: 1 + (rng.next_u64() % 50) as i64,
        };
        let req = Request::new(Rid::new("c1", serial), "reply.c1", "transfer", t.encode());
        let payload = req.encode_to_vec();
        repo.autocommit(|tx| {
            repo.qm()
                .enqueue(tx.id().raw(), &h, &payload, EnqueueOptions::default())
        })
        .unwrap();
    }
}

/// One E22 cell: two servers drain `n` pre-filled transfers, through the
/// `spawn` loop (`epoch`) or through a bare `run_once` loop, on a log that
/// charges `force` per sync. The request queue retries without limit so a
/// deadlock victim is never dead-lettered.
fn e22_run(epoch: bool, force: Duration, seed: u64, n: u64, hot_pct: u64) -> E22Run {
    const ACCOUNTS: u32 = 64;
    let repo = open_forcing("e22", 1, force);
    let mut req = QueueMeta::with_defaults("req");
    req.retry_limit = 0;
    repo.qm().create_queue(req).unwrap();
    repo.create_queue_defaults("reply.c1").unwrap();
    bank::seed_accounts(&repo, ACCOUNTS, 100_000).unwrap();
    e22_fill(&repo, seed, n, hot_pct, ACCOUNTS);

    let stop = Arc::new(AtomicBool::new(false));
    let before = log_forces(&repo);
    let t0 = Instant::now();
    let threads: Vec<_> = (0..2)
        .map(|i| {
            let cfg = ServerConfig::new(format!("e22-s{i}"), "req");
            let server = Server::new(Arc::clone(&repo), cfg, bank::single_txn_handler()).unwrap();
            let stop = Arc::clone(&stop);
            if epoch {
                return server.spawn(stop);
            }
            rrq_core::threads::spawn_named(format!("e22-once-{i}"), move || {
                while !stop.load(Ordering::Acquire) {
                    let _ = server.run_once();
                }
            })
        })
        .collect();
    while repo.qm().depth("reply.c1").unwrap() < n as usize {
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = t0.elapsed();
    let (syncs, records) = force_counts(before, log_forces(&repo), n);
    stop.store(true, Ordering::Release);
    for t in threads {
        let _ = t.join();
    }
    assert_eq!(repo.qm().depth("req").unwrap(), 0);
    let deadlocks = repo.tm().locks().stats().deadlocks;
    (n as f64 / elapsed.as_secs_f64(), deadlocks, syncs, records)
}

/// One [`e22_run`] drain: (requests per second, deadlocks, syncs per
/// request, records per sync).
type E22Run = (f64, u64, f64, f64);

fn e22_epoch_commit(scale: &Scale) {
    println!("## E22 — epoch commit vs per-request commit on the server loop\n");
    println!("Two servers drain a pre-filled queue of bank transfers, once through");
    println!("a bare `run_once` loop (one forced commit per request) and once");
    println!("through `spawn` (one force per epoch). Ten pairs per cell, the side");
    println!("that runs first alternating; median (min–max) req/s, then the");
    println!("deadlocks, log syncs per request and records per sync (force calls");
    println!("a sync covered: a commit's, or an epoch close's) of the median run.\n");
    println!("| force | hot % | run_once req/s | deadlocks | syncs/req | records/sync | spawn req/s | deadlocks | syncs/req | records/sync | spawn / run_once |");
    println!("|------:|------:|---------------:|----------:|----------:|-------------:|------------:|----------:|----------:|-------------:|-----------------:|");
    let n = 1500 * scale.n;
    for force in [Duration::ZERO, Duration::from_micros(100)] {
        for hot in [0u64, 50, 100] {
            let mut runs: [Vec<E22Run>; 2] = [Vec::new(), Vec::new()];
            for pair in 0..10u64 {
                for side in [pair % 2, 1 - pair % 2] {
                    runs[side as usize].push(e22_run(side == 1, force, hot + pair, n, hot));
                }
            }
            let cell = |r: &mut Vec<E22Run>| {
                r.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (rate, deadlocks, syncs, records) = r[5];
                format!(
                    "{rate:.0} ({:.0}–{:.0}) | {deadlocks} | {syncs:.3} | {records:.2}",
                    r[0].0, r[9].0
                )
            };
            let [once, epoch] = &mut runs;
            println!(
                "| {} us | {hot} | {} | {} | {:.2}x |",
                force.as_micros(),
                cell(once),
                cell(epoch),
                epoch[5].0 / once[5].0
            );
        }
    }
    println!();
}
