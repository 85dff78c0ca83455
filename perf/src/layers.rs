//! Per-layer metrics of a traced run, measured from outside the program: by
//! timing calls into public functions and by reading the public stats
//! getters. Every row has one source:
//!
//! * **counter rows** come from the traced workload's own serve phases and
//!   recoveries (what the stats getters counted, divided by requests);
//! * **span rows** come from a fixed `inline_bank`-shaped probe whose
//!   requests are traced as a root span with three children, run in rounds
//!   that alternate with untraced rounds so the difference is the tracing
//!   overhead;
//! * **probe rows** come from fixed single-thread probes (median of five
//!   batches), a fixed solo-against-pair drain, and fixed threaded and remote
//!   round trips.
//!
//! The probes are the same whichever workload is traced.

use crate::report::{median, percentile_us, Metric};
use crate::workloads::{
    inline_serve, pool_serve, preload, preload_record, round_rng, Kind, Node, Recovery, RunData,
    Serve, Span, Tally, ACCOUNTS, CHILD_SPANS, CLIENT, REPLY_QUEUE, REQ_QUEUE, ROOT_SPAN,
};
use rand::Rng;
use rrq_core::api::QmApi;
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::remote::{QmRpcServer, RemoteQm};
use rrq_core::request::Request;
use rrq_core::rid::Rid;
use rrq_core::server::{Server, ServerConfig};
use rrq_net::rpc::{spawn_server, RpcClient};
use rrq_net::NetworkBus;
use rrq_qm::element::Eid;
use rrq_qm::notify::QueueNotifier;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::qindex::QueueIndex;
use rrq_storage::codec::{Decode, Encode};
use rrq_storage::disk::SimDisk;
use rrq_storage::wal::{RecordKind, Wal};
use rrq_txn::lock::{LockKey, LockManager, LockMode};
use rrq_workload::bank;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per round of the span probe, and traced/untraced pairs.
const SPAN_REQUESTS: usize = 10_000;
const SPAN_PAIRS: usize = 3;
/// Backlog and solo/pair repetitions of the drain probe.
const DRAIN_BACKLOG: usize = 10_000;
const DRAIN_PAIRS: usize = 3;

const fn smoke_or(smoke: bool, small: usize, full: usize) -> usize {
    if smoke {
        small
    } else {
        full
    }
}

/// Nanoseconds per operation: the median of five batches.
fn ns_per_op(ops_per_batch: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let per_op: Vec<f64> = (0..5)
        .map(|_| batch().as_nanos() as f64 / ops_per_batch as f64)
        .collect();
    median(&per_op)
}

/// Rows computed from the traced workload's own counters and recoveries.
fn counter_rows(data: &RunData, out: &mut Vec<Metric>) {
    let requests: f64 = data.serves.iter().map(|s| s.requests as f64).sum();
    let sum = |f: &dyn Fn(&Serve) -> u64| -> f64 { data.serves.iter().map(|s| f(s) as f64).sum() };
    let n = data.serves.len();
    let grants = sum(&|s| s.counters.grants);
    // Bytes a user handed in and got back: the request body and the reply
    // body (11 bytes of "transferred", or the echoed body).
    let reply_bytes = match data.kind {
        Kind::Bank => 11,
        Kind::Echo(len) => len,
    };
    let user_bytes = requests * (data.kind.body_bytes() + reply_bytes) as f64;
    let mut row = |name, value: f64| out.push(Metric::single(name, value, n));
    row(
        "txn.manager.commits_per_req",
        sum(&|s| s.counters.commits) / requests,
    );
    row("txn.lock.grants_per_req", grants / requests);
    row(
        "storage.wal.syncs_per_req",
        sum(&|s| s.counters.wal_syncs) / requests,
    );
    row(
        "storage.wal.appends_per_req",
        sum(&|s| s.counters.wal_appends) / requests,
    );
    row(
        "storage.wal.bytes_per_user_byte",
        sum(&|s| s.counters.wal_bytes) / user_bytes,
    );
    row(
        "qm.ops.lock_skips_per_dequeue",
        sum(&|s| s.counters.lock_skips) / sum(&|s| s.counters.dequeues),
    );
    row(
        "txn.lock.waited_share",
        100.0 * sum(&|s| s.counters.waited_grants) / grants,
    );
    row("txn.lock.deadlocks", sum(&|s| s.counters.deadlocks));
    row("txn.lock.timeouts", sum(&|s| s.counters.timeouts));
    row("core.server.rolled_per_req", sum(&|s| s.rolled) / requests);
    row(
        "storage.group_commit.requests_per_group",
        sum(&|s| s.counters.group_requests) / sum(&|s| s.counters.groups),
    );

    let per_recovery =
        |f: &dyn Fn(&Recovery) -> f64| -> Vec<f64> { data.recoveries.iter().map(f).collect() };
    out.push(Metric::of_rounds(
        "storage.recovery.replayed_ops",
        &per_recovery(&|r| r.report.replayed as f64),
    ));
    out.push(Metric::of_rounds(
        "storage.recovery.ops_per_s",
        &per_recovery(&|r| r.report.replayed as f64 / r.seconds),
    ));
    out.push(Metric::of_rounds(
        "storage.wal.tail_mb",
        &per_recovery(&|r| r.tail_bytes as f64 / 1e6),
    ));
    let write_ms: Vec<f64> = data.checkpoints.iter().map(|c| c.0 * 1e3).collect();
    let bytes_mb: Vec<f64> = data.checkpoints.iter().map(|c| c.1 as f64 / 1e6).collect();
    out.push(Metric::of_rounds("storage.checkpoint.write_ms", &write_ms));
    out.push(Metric::of_rounds("storage.checkpoint.bytes_mb", &bytes_mb));
}

/// What the span probe hands to the rows that build on it.
struct SpanProbe {
    /// Mean microseconds per request of the three calls together.
    outer_us: f64,
    commits_per_req: f64,
    appends_per_req: f64,
    syncs_per_req: f64,
    /// Request latency p50 of the untraced rounds, median over them.
    inline_p50_us: f64,
}

/// Self time per span name: a span's duration minus what its children cover.
fn self_times_us(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut total: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        let us = (s.end - s.start).as_secs_f64() * 1e6;
        *total.entry(s.name).or_default() += us;
        if !s.parent.is_empty() {
            *total.entry(s.parent).or_default() -= us;
        }
    }
    total
}

/// Alternating traced and untraced `inline_bank`-shaped rounds.
fn span_probe(
    seed: u64,
    smoke: bool,
    tally: &mut Tally,
    spans_out: &mut Vec<Span>,
    out: &mut Vec<Metric>,
) -> SpanProbe {
    let kind = Kind::Bank;
    let n = smoke_or(smoke, 1_000, SPAN_REQUESTS);
    let pairs = smoke_or(smoke, 1, SPAN_PAIRS);
    let mut rps = [Vec::new(), Vec::new()];
    let mut self_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut untraced_p50_us = Vec::new();
    let mut traced_serves = Vec::new();
    for round in 0..2 * pairs {
        let traced = round % 2 == 1;
        let node = Node::build(kind);
        let bodies = kind.bodies(&mut round_rng(seed, 1_000 + round), n);
        let mut spans = Vec::with_capacity(if traced { 4 * n } else { 0 });
        let serve = inline_serve(&node, kind, &bodies, tally, traced.then_some(&mut spans));
        node.verify(kind, 0, 0, tally, "span probe");
        rps[usize::from(traced)].push(serve.requests as f64 / serve.seconds);
        if traced {
            for (name, us) in self_times_us(&spans) {
                self_us.entry(name).or_default().push(us / n as f64);
            }
            traced_serves.push(serve);
            spans_out.extend(spans);
        } else {
            untraced_p50_us.push(serve.latency_p50_us);
        }
    }

    let row = |name: &str| median(&self_us[name]);
    let (send, run_once, receive) = (
        row(CHILD_SPANS[0]),
        row(CHILD_SPANS[1]),
        row(CHILD_SPANS[2]),
    );
    out.push(Metric::of_rounds(
        "core.clerk.send_us",
        &self_us[CHILD_SPANS[0]],
    ));
    out.push(Metric::of_rounds(
        "core.server.run_once_us",
        &self_us[CHILD_SPANS[1]],
    ));
    out.push(Metric::of_rounds(
        "core.clerk.receive_us",
        &self_us[CHILD_SPANS[2]],
    ));
    out.push(Metric::of_rounds("bench.harness_us", &self_us[ROOT_SPAN]));
    // Each traced round against the untraced round just before it, so that
    // a slow stretch of the machine weighs on both.
    let overhead_pct: Vec<f64> = rps[0]
        .iter()
        .zip(&rps[1])
        .map(|(untraced, traced)| 100.0 * (untraced - traced) / untraced)
        .collect();
    out.push(Metric::of_rounds("trace.overhead_pct", &overhead_pct));

    let requests: f64 = traced_serves.iter().map(|s| s.requests as f64).sum();
    let per_req = |f: &dyn Fn(&Serve) -> u64| -> f64 {
        traced_serves.iter().map(|s| f(s) as f64).sum::<f64>() / requests
    };
    SpanProbe {
        outer_us: send + run_once + receive,
        commits_per_req: per_req(&|s| s.counters.commits),
        appends_per_req: per_req(&|s| s.counters.wal_appends),
        syncs_per_req: per_req(&|s| s.counters.wal_syncs),
        inline_p50_us: median(&untraced_p50_us),
    }
}

/// `count` requests as the clerk enqueues them, with bodies of `kind`'s size.
fn queue_records(kind: Kind, count: usize) -> Vec<(Vec<u8>, EnqueueOptions)> {
    kind.bodies(&mut round_rng(7, 2_000), count)
        .into_iter()
        .enumerate()
        .map(|(i, body)| preload_record(kind, i as u64 + 1, body))
        .collect()
}

/// `QueueManager::enqueue` and `dequeue`, each alone inside an open
/// transaction whose begin and commit are not timed, on a queue kept 1 000
/// deep: (enqueue ns, dequeue ns).
fn queue_op_probe(body: Kind) -> (f64, f64) {
    const DEPTH: usize = 1_000;
    const BATCH: usize = 200;
    // An echo node has the queues but no accounts to seed.
    let node = Node::build(Kind::Echo(0));
    let repo = &node.repo;
    let qm = repo.qm();
    let (handle, _) = qm.register(REQ_QUEUE, CLIENT, true).expect("register");
    let in_txn = |op: &mut dyn FnMut(u64)| -> Duration {
        let txn = repo.begin().expect("begin");
        let t = Instant::now();
        op(txn.id().raw());
        let spent = t.elapsed();
        txn.commit().expect("commit");
        spent
    };
    let enqueue = |(payload, opts): (Vec<u8>, EnqueueOptions)| {
        in_txn(&mut |txn| {
            black_box(
                qm.enqueue(txn, &handle, &payload, opts.clone())
                    .expect("enqueue"),
            );
        })
    };
    for record in queue_records(body, DEPTH) {
        enqueue(record);
    }
    let mut dequeue_ns = Vec::new();
    let enqueue_ns = ns_per_op(BATCH, || {
        let mut enqueuing = Duration::ZERO;
        let mut dequeuing = Duration::ZERO;
        for record in queue_records(body, BATCH) {
            enqueuing += enqueue(record);
            dequeuing += in_txn(&mut |txn| {
                black_box(
                    qm.dequeue(txn, &handle, DequeueOptions::default())
                        .expect("dequeue"),
                );
            });
        }
        dequeue_ns.push(dequeuing.as_nanos() as f64 / BATCH as f64);
        enqueuing
    });
    (enqueue_ns, median(&dequeue_ns))
}

/// Single-thread probes of the layers under the queue manager.
struct MicroProbes {
    enqueue_ns: f64,
    dequeue_ns: f64,
    lock_unlock_ns: f64,
    begin_commit_ns: f64,
    get_ns: f64,
    append_ns: f64,
    sync_ns: f64,
}

fn micro_probes(out: &mut Vec<Metric>) -> MicroProbes {
    let (enqueue_ns, dequeue_ns) = queue_op_probe(Kind::Bank);
    let (enqueue_4k_ns, dequeue_4k_ns) = queue_op_probe(Kind::Echo(4096));

    const K: usize = 10_000;
    let keys: Vec<Vec<u8>> = (0..K as u64).map(|i| i.to_be_bytes().to_vec()).collect();
    let index = QueueIndex::new();
    let insert_remove_ns = ns_per_op(K, || {
        let batch = keys.clone();
        let t = Instant::now();
        for (i, key) in batch.into_iter().enumerate() {
            index.insert(REQ_QUEUE, key, Eid(i as u64));
        }
        for key in &keys {
            black_box(index.remove(REQ_QUEUE, key));
        }
        t.elapsed()
    });

    let locks = LockManager::new();
    let lock_keys: Vec<LockKey> = keys.iter().map(|k| LockKey::new(1, k.clone())).collect();
    let lock_unlock_ns = ns_per_op(K, || {
        let t = Instant::now();
        for (txn, key) in lock_keys.iter().enumerate() {
            locks
                .lock(txn as u64 + 1, key, LockMode::Exclusive, Duration::ZERO)
                .expect("uncontended lock");
            locks.unlock_all(txn as u64 + 1);
        }
        t.elapsed()
    });

    let node = Node::build(Kind::Bank);
    let begin_commit_ns = ns_per_op(K, || {
        let t = Instant::now();
        for _ in 0..K {
            node.repo.begin().expect("begin").commit().expect("commit");
        }
        t.elapsed()
    });

    let store = node.repo.store();
    let mut next_txn = u64::MAX - 1_000_000;
    let put_commit_ns = ns_per_op(K / 2, || {
        let t = Instant::now();
        for key in &keys[..K / 2] {
            next_txn += 1;
            store.begin(next_txn).expect("begin");
            store.put(next_txn, key, &[0; 8]).expect("put");
            store.commit(next_txn).expect("commit");
        }
        t.elapsed()
    });
    let mut rng = round_rng(7, 2_001);
    let accounts: Vec<Vec<u8>> = (0..K)
        .map(|_| {
            let i = rng.gen_range(0..u64::from(ACCOUNTS)) as u32;
            bank::account_cell(i).into_bytes()
        })
        .collect();
    let get_ns = ns_per_op(K, || {
        let t = Instant::now();
        for key in &accounts {
            black_box(store.get(None, key).expect("get"));
        }
        t.elapsed()
    });

    let wal_probe = |payload_len: usize| -> (f64, f64) {
        let wal = Wal::new(Arc::new(SimDisk::new()));
        let payload = vec![0xA5u8; payload_len];
        let mut sync_ns = Vec::new();
        let append_ns = ns_per_op(K / 5, || {
            let mut appending = Duration::ZERO;
            let mut syncing = Duration::ZERO;
            // Three records a force, as a small transaction writes them.
            for i in 0..K / 5 {
                let t = Instant::now();
                wal.append(i as u64, RecordKind::KvPut, &payload)
                    .expect("append");
                appending += t.elapsed();
                if i % 3 == 2 {
                    let t = Instant::now();
                    wal.sync().expect("sync");
                    syncing += t.elapsed();
                }
            }
            sync_ns.push(syncing.as_nanos() as f64 / (K / 15) as f64);
            appending
        });
        (append_ns, median(&sync_ns))
    };
    let (append_ns, sync_ns) = wal_probe(64);
    let (append_4k_ns, _) = wal_probe(4096);

    let request = Request::new(
        Rid::new(CLIENT, 1),
        REPLY_QUEUE,
        "echo",
        Kind::Echo(4096)
            .bodies(&mut round_rng(7, 2_002), 1)
            .remove(0),
    );
    let encoded = request.encode_to_vec();
    let encode_ns = ns_per_op(K, || {
        let t = Instant::now();
        for _ in 0..K {
            black_box(black_box(&request).encode_to_vec());
        }
        t.elapsed()
    });
    let decode_ns = ns_per_op(K, || {
        let t = Instant::now();
        for _ in 0..K {
            black_box(Request::decode_all(black_box(&encoded)).expect("decode"));
        }
        t.elapsed()
    });

    let mut row = |name, value| out.push(Metric::single(name, value, 5));
    row("qm.ops.enqueue_ns", enqueue_ns);
    row("qm.ops.dequeue_ns", dequeue_ns);
    row("qm.qindex.insert_remove_ns", insert_remove_ns);
    row("txn.lock.lock_unlock_ns", lock_unlock_ns);
    row("txn.manager.begin_commit_ns", begin_commit_ns);
    row("storage.kv.put_commit_ns", put_commit_ns);
    row("storage.kv.get_ns", get_ns);
    row("storage.wal.append_ns", append_ns);
    row("storage.wal.sync_ns", sync_ns);
    row("storage.codec.request_encode_ns", encode_ns);
    row("storage.codec.request_decode_ns", decode_ns);
    row("storage.wal.append_4k_ns", append_4k_ns);
    row("qm.ops.enqueue_4k_ns", enqueue_4k_ns);
    row("qm.ops.dequeue_4k_ns", dequeue_4k_ns);
    MicroProbes {
        enqueue_ns,
        dequeue_ns,
        lock_unlock_ns,
        begin_commit_ns,
        get_ns,
        append_ns,
        sync_ns,
    }
}

/// The same backlog drained by one server and by two, alternating.
fn drain_probe(seed: u64, smoke: bool, tally: &mut Tally, out: &mut Vec<Metric>) {
    let kind = Kind::Bank;
    let n = smoke_or(smoke, 1_000, DRAIN_BACKLOG);
    let pairs = smoke_or(smoke, 1, DRAIN_PAIRS);
    let mut rps = [Vec::new(), Vec::new()];
    let mut preload_us = Vec::new();
    for round in 0..2 * pairs {
        let workers = 1 + round % 2;
        let node = Node::build(kind);
        let bodies = kind.bodies(&mut round_rng(seed, 3_000 + round), n);
        preload_us.push(preload(&node, kind, bodies) * 1e6 / n as f64);
        let serve = pool_serve(&node, workers, n, tally);
        node.verify(kind, 0, n, tally, "drain probe");
        rps[workers - 1].push(n as f64 / serve.seconds);
    }
    let (solo, pair) = (median(&rps[0]), median(&rps[1]));
    out.push(Metric::of_rounds("core.server.solo_drain_rps", &rps[0]));
    out.push(Metric::single(
        "core.server.pool_scaling",
        pair / solo,
        pairs,
    ));
    out.push(Metric::of_rounds("qm.ops.preload_enqueue_us", &preload_us));
}

/// A clerk on this thread and a server on its own, over `api`: per-request
/// round-trip times in nanoseconds.
fn threaded_round_trips(node: &Node, api: Arc<dyn QmApi>, n: usize, tally: &mut Tally) -> Vec<u32> {
    let kind = Kind::Bank;
    let server = Server::new(
        Arc::clone(&node.repo),
        ServerConfig::new("s0", REQ_QUEUE),
        kind.handler(),
    )
    .expect("register server");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = server.spawn(Arc::clone(&stop));
    let mut cfg = ClerkConfig::new(CLIENT, REQ_QUEUE);
    cfg.receive_block = Duration::from_secs(10);
    let clerk = Clerk::new(api, cfg);
    clerk.connect().expect("connect");
    let bodies = kind.bodies(&mut round_rng(7, 4_000), n);
    let mut rtt = Vec::with_capacity(n);
    for (i, body) in bodies.into_iter().enumerate() {
        let rid = Rid::new(CLIENT, i as u64 + 1);
        let t = Instant::now();
        let reply = clerk.transceive(kind.op(), body, rid.clone(), b"");
        rtt.push(t.elapsed().as_nanos() as u32);
        tally.attempted += 1;
        tally.check(matches!(&reply, Ok(r) if r.rid == rid), || {
            format!("threaded request {rid}: {reply:?}")
        });
    }
    stop.store(true, Ordering::Release);
    handle.join().expect("server thread panicked");
    node.verify(kind, 0, 0, tally, "threaded probe");
    rtt
}

/// Rows that depend on thread wake-ups and the simulated network; reported
/// for a later issue, they move no end-to-end metric today.
fn threaded_probes(smoke: bool, inline_p50_us: f64, tally: &mut Tally, out: &mut Vec<Metric>) {
    let n = smoke_or(smoke, 200, 3_000);

    let node = Node::build(Kind::Bank);
    let local: Arc<dyn QmApi> = Arc::new(rrq_core::api::LocalQm::new(Arc::clone(&node.repo)));
    let mut rtt = threaded_round_trips(&node, local, n, tally);
    let threaded_p50 = percentile_us(&mut rtt, 50.0);
    out.push(Metric::single(
        "core.pipeline.threaded_p50_us",
        threaded_p50,
        n,
    ));
    out.push(Metric::single(
        "core.clerk.roundtrip_p99_us",
        percentile_us(&mut rtt, 99.0),
        n,
    ));
    out.push(Metric::single(
        "qm.notify.wakeup_share",
        100.0 * (threaded_p50 - inline_p50_us) / threaded_p50,
        n,
    ));

    // One thread signals "ping" and waits for "pong"; the other does the
    // reverse. Half a round trip is one hand-off.
    let notifier = QueueNotifier::new();
    let mut ping_pong = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..n as u64 {
                notifier.wait_past("ping", i, Duration::from_secs(10));
                notifier.signal("pong");
            }
        });
        for i in 0..n as u64 {
            let t = Instant::now();
            notifier.signal("ping");
            notifier.wait_past("pong", i, Duration::from_secs(10));
            ping_pong.push(t.elapsed().as_nanos() as u32);
        }
    });
    out.push(Metric::single(
        "qm.notify.handoff_us",
        percentile_us(&mut ping_pong, 50.0) / 2.0,
        n,
    ));

    let bus = NetworkBus::new(7);
    let echo = spawn_server(&bus, "echo", |env| env.payload.clone());
    let client = RpcClient::new(&bus, "probe");
    let mut rpc = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let reply = client.call("echo", vec![0; 64], Duration::from_secs(10));
        rpc.push(t.elapsed().as_nanos() as u32);
        tally.attempted += 1;
        tally.check(reply.is_ok(), || format!("rpc echo: {reply:?}"));
    }
    echo.shutdown();
    out.push(Metric::single(
        "net.rpc.roundtrip_us",
        percentile_us(&mut rpc, 50.0),
        n,
    ));

    let node = Node::build(Kind::Bank);
    let rpc_server = QmRpcServer::spawn(&bus, "qm", Arc::clone(&node.repo));
    let remote = Arc::new(RemoteQm::new(&bus, "clerk", "qm"));
    let n_remote = smoke_or(smoke, 100, 500);
    let (calls_before, one_way_before) = remote.message_counts();
    threaded_round_trips(
        &node,
        Arc::clone(&remote) as Arc<dyn QmApi>,
        n_remote,
        tally,
    );
    let (calls, one_way) = remote.message_counts();
    // connect() made two register calls before the first request.
    let calls = (calls - calls_before - 2) as f64 / n_remote as f64;
    let one_way = (one_way - one_way_before) as f64 / n_remote as f64;
    out.push(Metric::single(
        "core.remote.msgs_per_req",
        2.0 * calls + one_way,
        n_remote,
    ));
    // One enqueue and one successful dequeue are the calls a request needs;
    // every further call is a dequeue that found the reply queue empty and
    // slept the 20 ms poll interval.
    out.push(Metric::single(
        "core.remote.empty_polls_per_req",
        calls - 2.0,
        n_remote,
    ));

    remote
        .register(REQ_QUEUE, "probe", false)
        .expect("remote register");
    let records = queue_records(Kind::Bank, n_remote);
    let mut enqueue = Vec::with_capacity(n_remote);
    for (payload, opts) in records {
        let t = Instant::now();
        let eid = remote.enqueue(REQ_QUEUE, "probe", &payload, opts);
        enqueue.push(t.elapsed().as_nanos() as u32);
        tally.attempted += 1;
        tally.check(eid.is_ok(), || format!("remote enqueue: {eid:?}"));
    }
    rpc_server.shutdown();
    out.push(Metric::single(
        "core.remote.enqueue_roundtrip_us",
        percentile_us(&mut enqueue, 50.0),
        n_remote,
    ));
}

/// Every per-layer metric, and the spans of the span probe.
pub fn per_layer(
    data: &RunData,
    seed: u64,
    smoke: bool,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<Span>) {
    let mut out = Vec::new();
    let mut spans = Vec::new();
    counter_rows(data, &mut out);
    let span = span_probe(seed, smoke, tally, &mut spans, &mut out);
    let micro = micro_probes(&mut out);
    drain_probe(seed, smoke, tally, &mut out);
    threaded_probes(smoke, span.inline_p50_us, tally, &mut out);

    // What the probes explain of the three calls of one request: two
    // enqueues and two dequeues inside open transactions, the bookkeeping of
    // its transactions, their log appends and forces, and the handler's two
    // reads under two locks. The rest is clerk and server glue (codecs,
    // tags, registration records, the handler's writes, allocation).
    let attributed_ns = 2.0 * micro.enqueue_ns
        + 2.0 * micro.dequeue_ns
        + span.commits_per_req * micro.begin_commit_ns
        + span.appends_per_req * micro.append_ns
        + span.syncs_per_req * micro.sync_ns
        + 2.0 * micro.get_ns
        + 2.0 * micro.lock_unlock_ns;
    out.push(Metric::single(
        "budget.unattributed_pct",
        100.0 * (span.outer_us - attributed_ns / 1e3) / span.outer_us,
        1,
    ));
    (out, spans)
}
