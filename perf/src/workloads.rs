//! The four workloads. Each is a sequence of *rounds* on fresh repositories
//! (bounded state, so every round does the same work); what is timed is the
//! serve phase and the crash recovery of each round, everything else —
//! building, seeding, preloading, verifying, dropping — is set-up.
//!
//! All repositories are `RepoOptions::default()` on zero-latency `SimDisk`s:
//! the numbers are processor time of the shipped configuration, not device
//! time. No timed path sleeps or blocks, and never more than two threads are
//! runnable.

use crate::report::{median, peak_rss_mb, percentile_us, Metric};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rrq_core::api::{LocalQm, QmApi};
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::request::{Reply, ReplyStatus, Request};
use rrq_core::rid::Rid;
use rrq_core::server::{Handler, HandlerOutcome, Served, Server, ServerConfig};
use rrq_core::tagcodec::encode_send_tag;
use rrq_qm::ops::EnqueueOptions;
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_qm::retrieval::Predicate;
use rrq_storage::codec::{Decode, Encode};
use rrq_storage::disk::{Disk, SimDisk};
use rrq_storage::recovery::RecoveryReport;
use rrq_workload::bank::{self, Transfer};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Accounts the bank workloads draw from; `from < to` over this many keeps
/// two concurrent transfers from ever waiting in opposite orders, so no
/// deadlock-detector timing enters a measurement.
pub const ACCOUNTS: u32 = 100_000;
const INITIAL_BALANCE: i64 = 1_000;

pub const CLIENT: &str = "c0";
pub const REQ_QUEUE: &str = "req";
pub const REPLY_QUEUE: &str = "reply.c0";

/// What the requests carry and which handler serves them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 16-byte transfers served by `bank::single_txn_handler`.
    Bank,
    /// Random bodies of this many bytes, echoed back.
    Echo(usize),
}

impl Kind {
    pub fn op(self) -> &'static str {
        match self {
            Kind::Bank => "transfer",
            Kind::Echo(_) => "echo",
        }
    }

    pub fn body_bytes(self) -> usize {
        match self {
            Kind::Bank => 16,
            Kind::Echo(n) => n,
        }
    }

    pub fn handler(self) -> Handler {
        match self {
            Kind::Bank => bank::single_txn_handler(),
            Kind::Echo(_) => Arc::new(|_ctx, req| Ok(HandlerOutcome::Reply(req.body.clone()))),
        }
    }

    /// The reply body a correct server gives to `body`.
    fn expected_reply(self, body: &[u8]) -> &[u8] {
        match self {
            Kind::Bank => b"transferred",
            Kind::Echo(_) => body,
        }
    }

    /// Request bodies for one round, from the round's generator.
    pub fn bodies(self, rng: &mut StdRng, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| match self {
                Kind::Bank => {
                    let a = rng.gen_range(0..u64::from(ACCOUNTS)) as u32;
                    let b = rng.gen_range(0..u64::from(ACCOUNTS) - 1) as u32;
                    let b = if b >= a { b + 1 } else { b };
                    Transfer {
                        from: a.min(b),
                        to: a.max(b),
                        amount: rng.gen_range(1..100) as i64,
                    }
                    .encode()
                }
                Kind::Echo(len) => {
                    let mut body = Vec::with_capacity(len);
                    while body.len() < len {
                        body.extend_from_slice(&rng.next_u64().to_le_bytes());
                    }
                    body.truncate(len);
                    body
                }
            })
            .collect()
    }
}

/// Sizes of one workload at full and at smoke scale.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Requests per round (per build, for `crash_recover`, whose rounds
    /// serve the sixth of them the build leaves queued).
    pub requests: usize,
    /// Measured rounds a run never goes below, however short `--seconds` is.
    pub min_rounds: usize,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// Count one failed operation unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }
}

/// What the public stats getters count, read together.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    pub group_requests: u64,
    pub groups: u64,
    pub grants: u64,
    pub waited_grants: u64,
    pub deadlocks: u64,
    pub timeouts: u64,
    pub commits: u64,
    pub lock_skips: u64,
    pub dequeues: u64,
}

impl Counters {
    pub fn read(repo: &Repository) -> Counters {
        let wal = repo.disks().wal.stats();
        let group = repo.store().group_commit_stats();
        let locks = repo.tm().locks().stats();
        let qm = repo.qm().stats();
        Counters {
            wal_appends: wal.appends,
            wal_bytes: wal.bytes_appended,
            wal_syncs: wal.syncs,
            group_requests: group.requests,
            groups: group.groups,
            grants: locks.immediate_grants + locks.waited_grants,
            waited_grants: locks.waited_grants,
            deadlocks: locks.deadlocks,
            timeouts: locks.timeouts,
            commits: repo.tm().stats().committed,
            lock_skips: qm.lock_skips,
            dequeues: qm.dequeues,
        }
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            group_requests: self.group_requests - earlier.group_requests,
            groups: self.groups - earlier.groups,
            grants: self.grants - earlier.grants,
            waited_grants: self.waited_grants - earlier.waited_grants,
            deadlocks: self.deadlocks - earlier.deadlocks,
            timeouts: self.timeouts - earlier.timeouts,
            commits: self.commits - earlier.commits,
            lock_skips: self.lock_skips - earlier.lock_skips,
            dequeues: self.dequeues - earlier.dequeues,
        }
    }
}

/// A repository on fresh devices with the request and reply queues, and the
/// bank's accounts when the workload needs them.
pub struct Node {
    pub repo: Arc<Repository>,
    pub disks: RepoDisks,
}

impl Node {
    pub fn build(kind: Kind) -> Node {
        let disks = RepoDisks::new();
        let (repo, _) = Repository::open("perf", disks.clone()).expect("open fresh repository");
        repo.create_queue_defaults(REQ_QUEUE).expect("create req");
        repo.create_queue_defaults(REPLY_QUEUE)
            .expect("create reply queue");
        if kind == Kind::Bank {
            bank::seed_accounts(&repo, ACCOUNTS, INITIAL_BALANCE).expect("seed accounts");
        }
        Node {
            repo: Arc::new(repo),
            disks,
        }
    }

    pub fn server(&self, name: &str, kind: Kind) -> Arc<Server> {
        let mut cfg = ServerConfig::new(name, REQ_QUEUE);
        cfg.block = Duration::ZERO;
        Server::new(Arc::clone(&self.repo), cfg, kind.handler()).expect("register server")
    }

    pub fn clerk(&self) -> Clerk {
        let api = Arc::new(LocalQm::new(Arc::clone(&self.repo)));
        let mut cfg = ClerkConfig::new(CLIENT, REQ_QUEUE);
        cfg.receive_block = Duration::ZERO;
        Clerk::new(api, cfg)
    }

    /// Queue depths, money conservation, and agreement of the ready index
    /// with storage.
    pub fn verify(
        &self,
        kind: Kind,
        req_depth: usize,
        reply_depth: usize,
        tally: &mut Tally,
        at: &str,
    ) {
        let qm = self.repo.qm();
        let req = qm.depth(REQ_QUEUE).expect("depth");
        tally.check(req == req_depth, || {
            format!("{at}: depth(req) = {req}, expected {req_depth}")
        });
        let reply = qm.depth(REPLY_QUEUE).expect("depth");
        tally.check(reply == reply_depth, || {
            format!("{at}: depth(reply.c0) = {reply}, expected {reply_depth}")
        });
        if kind == Kind::Bank {
            let total = bank::total_money(&self.repo, ACCOUNTS).expect("total_money");
            let expected = i64::from(ACCOUNTS) * INITIAL_BALANCE;
            tally.check(total == expected, || {
                format!("{at}: total money {total}, expected {expected}")
            });
        }
        let divergence = qm.index_divergence().expect("index_divergence");
        tally.check(divergence.is_none(), || {
            format!("{at}: ready index diverges from storage: {divergence:?}")
        });
    }

    /// Drop the repository, lose every unsynced byte, and time the reopen.
    fn crash_and_recover(self, tally: &mut Tally) -> (Node, Recovery) {
        let Node { repo, disks } = self;
        drop(repo);
        disks.crash();
        Node::reopen(disks, tally)
    }

    /// Timed `Repository::open` on devices a crash left behind.
    fn reopen(disks: RepoDisks, tally: &mut Tally) -> (Node, Recovery) {
        let tail_bytes = disks.wal.len();
        let t = Instant::now();
        let opened = Repository::open("perf", disks.clone());
        let seconds = t.elapsed().as_secs_f64();
        tally.attempted += 1;
        let (repo, report) = opened.expect("reopen after crash");
        let node = Node {
            repo: Arc::new(repo),
            disks,
        };
        (
            node,
            Recovery {
                seconds,
                tail_bytes,
                report,
            },
        )
    }

    /// Timed checkpoint: (seconds, bytes the checkpoint device holds after).
    pub fn checkpoint(&self) -> (f64, u64) {
        let t = Instant::now();
        self.repo.checkpoint().expect("checkpoint");
        (t.elapsed().as_secs_f64(), self.disks.ckpt.len())
    }
}

pub struct Recovery {
    pub seconds: f64,
    /// Log bytes the reopen had to scan.
    pub tail_bytes: u64,
    pub report: RecoveryReport,
}

/// A timed serve phase.
#[derive(Clone, Copy)]
pub struct Serve {
    pub seconds: f64,
    pub requests: usize,
    /// What the stats getters counted during the phase.
    pub counters: Counters,
    /// `ServerStats::rolled` summed over the phase's servers.
    pub rolled: u64,
    /// p50 of the phase's per-request latencies.
    pub latency_p50_us: f64,
}

/// What one round measured.
pub struct Round {
    pub serve: Serve,
    pub recovery: Recovery,
    /// Timed checkpoint after the recovery, traced runs only.
    pub checkpoint: Option<(f64, u64)>,
    /// Wall time of the whole round, measured intervals included.
    pub wall_s: f64,
}

/// Everything a run measured, before it is turned into metrics.
pub struct RunData {
    /// One per round.
    pub serves: Vec<Serve>,
    /// One per round.
    pub recoveries: Vec<Recovery>,
    /// (seconds, bytes on the checkpoint device) per timed checkpoint.
    pub checkpoints: Vec<(f64, u64)>,
    /// Per round: wall time outside the measured intervals.
    pub unmeasured_s: Vec<f64>,
    pub tally: Tally,
    /// Process start to the first measured round, warm-up round included,
    /// without measured intervals.
    pub once_s: f64,
    pub warmup_s: f64,
    pub requests_per_round: usize,
    pub kind: Kind,
}

/// The request as the clerk would enqueue it (same payload, attributes and
/// tag), for workloads that preload through `QmApi::enqueue`.
pub fn preload_record(kind: Kind, serial: u64, body: Vec<u8>) -> (Vec<u8>, EnqueueOptions) {
    let rid = Rid::new(CLIENT, serial);
    let opts = EnqueueOptions {
        priority: 0,
        attrs: vec![
            ("rid".into(), rid.to_attr()),
            ("reply_queue".into(), REPLY_QUEUE.into()),
        ],
        tag: Some(encode_send_tag(&rid)),
    };
    let payload = Request::new(rid, REPLY_QUEUE, kind.op(), body).encode_to_vec();
    (payload, opts)
}

/// Enqueue `bodies` as requests with serials from 1; returns seconds spent
/// in the enqueue calls alone.
pub fn preload(node: &Node, kind: Kind, bodies: Vec<Vec<u8>>) -> f64 {
    let api = LocalQm::new(Arc::clone(&node.repo));
    api.register(REQ_QUEUE, CLIENT, true).expect("register");
    let records: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| preload_record(kind, i as u64 + 1, body))
        .collect();
    let t = Instant::now();
    for (payload, opts) in records {
        api.enqueue(REQ_QUEUE, CLIENT, &payload, opts)
            .expect("preload enqueue");
    }
    t.elapsed().as_secs_f64()
}

/// `server.run_once()` until the queue is idle or `limit` requests are
/// committed; pushes each committed call's duration.
pub fn drain(server: &Server, limit: usize, latencies_ns: &mut Vec<u32>) -> Result<usize, String> {
    let mut committed = 0;
    while committed < limit {
        let t = Instant::now();
        match server.run_once().map_err(|e| e.to_string())? {
            Served::Committed => {
                latencies_ns.push(t.elapsed().as_nanos() as u32);
                committed += 1;
            }
            Served::Idle => break,
            Served::Aborted | Served::Rolled => {}
        }
    }
    Ok(committed)
}

/// Every reply in the reply queue, read without dequeuing: one `Ok` reply
/// with the right body per request serial in `1..=n`.
fn verify_replies(node: &Node, kind: Kind, bodies: &[Vec<u8>], tally: &mut Tally, at: &str) {
    let elems = node
        .repo
        .qm()
        .query(REPLY_QUEUE, &Predicate::True)
        .expect("query replies");
    let mut seen = vec![false; bodies.len()];
    for e in elems {
        match Reply::decode_all(&e.payload) {
            Ok(r) => {
                let i = r.rid.serial.wrapping_sub(1) as usize;
                let ok = r.rid.client == CLIENT
                    && r.status == ReplyStatus::Ok
                    && i < bodies.len()
                    && !seen[i]
                    && r.body == kind.expected_reply(&bodies[i]);
                if ok {
                    seen[i] = true;
                } else {
                    tally.fail(|| format!("{at}: wrong or duplicate reply for {}", r.rid));
                }
            }
            Err(err) => tally.fail(|| format!("{at}: undecodable reply: {err}")),
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    for _ in 0..missing {
        tally.fail(|| format!("{at}: {missing} request(s) have no reply"));
    }
}

/// One timed interval of a traced request: the root span covers the whole
/// request, its children the three calls into the program.
pub struct Span {
    pub name: &'static str,
    /// Empty for a root span.
    pub parent: &'static str,
    pub rid_serial: u64,
    pub start: Instant,
    pub end: Instant,
}

pub const ROOT_SPAN: &str = "bench.request";
pub const CHILD_SPANS: [&str; 3] = [
    "core.clerk.send",
    "core.server.run_once",
    "core.clerk.receive",
];

/// `send`, `run_once`, `receive` for every body on the calling thread; the
/// latency of a request runs from before `send` until its reply has been
/// received and checked. With `spans`, each request also records a root span
/// and one child span per call (two more clock reads and four records per
/// request: that is all tracing costs).
pub fn inline_serve(
    node: &Node,
    kind: Kind,
    bodies: &[Vec<u8>],
    tally: &mut Tally,
    mut spans: Option<&mut Vec<Span>>,
) -> Serve {
    let mut latencies_ns = Vec::with_capacity(bodies.len());
    let server = node.server("s0", kind);
    let clerk = node.clerk();
    clerk.connect().expect("connect");
    let op = kind.op();
    let before = Counters::read(&node.repo);
    let started = Instant::now();
    for (i, body) in bodies.iter().enumerate() {
        let rid = Rid::new(CLIENT, i as u64 + 1);
        let t0 = Instant::now();
        let sent = clerk.send(op, body.clone(), rid.clone());
        let t1 = spans.is_some().then(Instant::now);
        let served = server.run_once();
        let t2 = spans.is_some().then(Instant::now);
        let reply = clerk.receive(b"");
        let t3 = spans.is_some().then(Instant::now);
        let ok = sent.is_ok()
            && matches!(served, Ok(Served::Committed))
            && matches!(&reply, Ok(r) if r.rid == rid
                && r.status == ReplyStatus::Ok
                && r.body == kind.expected_reply(body));
        let end = Instant::now();
        latencies_ns.push((end - t0).as_nanos() as u32);
        tally.attempted += 1;
        tally.check(ok, || {
            format!("request {rid}: send {sent:?}, run_once {served:?}, reply {reply:?}")
        });
        if let (Some(spans), Some(t1), Some(t2), Some(t3)) = (spans.as_deref_mut(), t1, t2, t3) {
            let mut push = |name, parent, start, end| {
                spans.push(Span {
                    name,
                    parent,
                    rid_serial: rid.serial,
                    start,
                    end,
                })
            };
            push(ROOT_SPAN, "", t0, end);
            push(CHILD_SPANS[0], ROOT_SPAN, t0, t1);
            push(CHILD_SPANS[1], ROOT_SPAN, t1, t2);
            push(CHILD_SPANS[2], ROOT_SPAN, t2, t3);
        }
    }
    Serve {
        seconds: started.elapsed().as_secs_f64(),
        requests: bodies.len(),
        counters: Counters::read(&node.repo).since(&before),
        rolled: server.stats().rolled,
        latency_p50_us: percentile_us(&mut latencies_ns, 50.0),
    }
}

pub fn round_rng(seed: u64, round: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One `inline_*` round: build, serve on this thread, verify, crash,
/// recover, verify.
fn inline_round(kind: Kind, n: usize, rng: &mut StdRng, trace: bool, tally: &mut Tally) -> Round {
    let wall = Instant::now();
    let node = Node::build(kind);
    let bodies = kind.bodies(rng, n);
    let serve = inline_serve(&node, kind, &bodies, tally, None);
    node.verify(kind, 0, 0, tally, "after serve");
    let (recovery, checkpoint) = end_round(node, kind, 0, Some(n as u64), trace, tally);
    Round {
        serve,
        recovery,
        checkpoint,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// `workers` servers, each on its own thread, drain the request queue while
/// the calling thread only joins them; `n` requests are expected.
pub fn pool_serve(node: &Node, workers: usize, n: usize, tally: &mut Tally) -> Serve {
    let kind = Kind::Bank;
    let servers: Vec<_> = (0..workers)
        .map(|w| node.server(&format!("s{w}"), kind))
        .collect();
    let start = Barrier::new(workers + 1);
    let before = Counters::read(&node.repo);
    let (started, drained) = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .iter()
            .map(|server| {
                let start = &start;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(n);
                    start.wait();
                    drain(server, usize::MAX, &mut lat).map(|done| (done, lat))
                })
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let drained: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (started, drained)
    });
    let seconds = started.elapsed().as_secs_f64();
    let counters = Counters::read(&node.repo).since(&before);
    let mut committed = 0;
    let mut latencies_ns = Vec::with_capacity(n);
    for d in drained {
        match d {
            Ok((done, lat)) => {
                committed += done;
                latencies_ns.extend(lat);
            }
            Err(e) => tally.fail(|| format!("worker stopped: {e}")),
        }
    }
    tally.attempted += n as u64;
    for _ in committed..n {
        tally.fail(|| format!("short drain: {committed} of {n} committed"));
    }
    Serve {
        seconds,
        requests: n,
        counters,
        rolled: servers.iter().map(|s| s.stats().rolled).sum(),
        latency_p50_us: percentile_us(&mut latencies_ns, 50.0),
    }
}

/// One `pool_drain` round: build, preload, two servers drain, verify, crash,
/// recover, verify.
fn pool_round(n: usize, rng: &mut StdRng, trace: bool, tally: &mut Tally) -> Round {
    let kind = Kind::Bank;
    let wall = Instant::now();
    let node = Node::build(kind);
    let bodies = kind.bodies(rng, n);
    preload(&node, kind, bodies.clone());
    let serve = pool_serve(&node, 2, n, tally);
    node.verify(kind, 0, n, tally, "after drain");
    verify_replies(&node, kind, &bodies, tally, "after drain");
    let (recovery, checkpoint) = end_round(node, kind, n, None, trace, tally);
    Round {
        serve,
        recovery,
        checkpoint,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// The end every round shares: crash, timed reopen, verify the recovered
/// state, and (traced runs) a timed checkpoint.
fn end_round(
    node: Node,
    kind: Kind,
    reply_depth: usize,
    last_received: Option<u64>,
    trace: bool,
    tally: &mut Tally,
) -> (Recovery, Option<(f64, u64)>) {
    let (node, recovery) = node.crash_and_recover(tally);
    node.verify(kind, 0, reply_depth, tally, "after recovery");
    if let Some(serial) = last_received {
        // Fig 2 resynchronisation: the stable tags must name the last
        // request as both sent and received.
        let info = node.clerk().connect().expect("reconnect");
        let last = Some(Rid::new(CLIENT, serial));
        tally.check(info.s_rid == last && info.r_rid == last, || {
            format!("after recovery: resync saw {info:?}, expected {last:?} twice")
        });
    }
    let checkpoint = trace.then(|| node.checkpoint());
    (recovery, checkpoint)
}

/// Rounds until `seconds` of measured time have passed, after one untimed
/// warm-up round.
fn run_rounds(
    kind: Kind,
    scale: Scale,
    seed: u64,
    seconds: f64,
    started: Instant,
    mut round: impl FnMut(&mut StdRng, &mut Tally) -> Round,
) -> RunData {
    let mut data = RunData::new(kind, scale);
    let warm = round(&mut round_rng(seed, 0), &mut data.tally);
    // The warm-up's operations were checked (a failure there counts) but
    // were not measured.
    data.tally.attempted = 0;
    data.warmup_s = warm.wall_s;
    data.once_s = started.elapsed().as_secs_f64();

    let mut measured = 0.0;
    while data.recoveries.len() < scale.min_rounds || measured < seconds {
        let mut rng = round_rng(seed, data.recoveries.len() + 1);
        let r = round(&mut rng, &mut data.tally);
        measured += r.serve.seconds + r.recovery.seconds;
        data.unmeasured_s
            .push(r.wall_s - r.serve.seconds - r.recovery.seconds);
        data.serves.push(r.serve);
        data.recoveries.push(r.recovery);
        data.checkpoints.extend(r.checkpoint);
    }
    data
}

pub fn inline(
    kind: Kind,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    started: Instant,
) -> RunData {
    run_rounds(kind, scale, seed, seconds, started, |rng, tally| {
        inline_round(kind, scale.requests, rng, trace, tally)
    })
}

pub fn pool_drain(scale: Scale, seed: u64, seconds: f64, trace: bool, started: Instant) -> RunData {
    run_rounds(Kind::Bank, scale, seed, seconds, started, |rng, tally| {
        pool_round(scale.requests, rng, trace, tally)
    })
}

/// The bytes of every device after the build's crash, put back before each
/// recovery so that every round reopens exactly the same checkpoint and log
/// tail, whatever the round before it went on to write.
struct Image(Vec<(SimDisk, Vec<u8>)>);

impl Image {
    fn take(disks: &RepoDisks) -> Image {
        let devices = disks
            .wal_groups
            .iter()
            .flatten()
            .chain(&disks.ckpts)
            .chain([&disks.coord]);
        Image(
            devices
                .filter(|d| !d.is_empty())
                .map(|d| {
                    let bytes = d.read(0, d.len() as usize).expect("read device");
                    (d.clone(), bytes)
                })
                .collect(),
        )
    }

    fn restore(&self) {
        for (device, bytes) in &self.0 {
            device.reset(bytes.clone()).expect("reset device");
        }
    }
}

/// Build once — preload, serve half, checkpoint, serve a third more, leave a
/// sixth queued, crash — then rounds on that one disk image: timed reopen,
/// verify, timed drain of the queued sixth by the recovered node, verify,
/// crash. Every recovery replays the same checkpoint and log tail, and every
/// drain serves the same requests, so throughput, latency and log volume are
/// medians over rounds like the recovery time, not one reading of the build.
pub fn crash_recover(scale: Scale, seed: u64, seconds: f64, started: Instant) -> RunData {
    let kind = Kind::Bank;
    let n = scale.requests;
    let phases = [n / 2, n / 3];
    let served: usize = phases.iter().sum();
    let queued = n - served;
    let mut build = Tally::default();

    let node = Node::build(kind);
    let bodies = kind.bodies(&mut round_rng(seed, 0), n);
    preload(&node, kind, bodies.clone());
    let server = node.server("s0", kind);
    let mut checkpoint = None;
    for (phase, limit) in phases.into_iter().enumerate() {
        let done = drain(&server, limit, &mut Vec::new());
        build.check(done == Ok(limit), || {
            format!("build phase {phase}: {done:?}, expected {limit} committed")
        });
        if phase == 0 {
            checkpoint = Some(node.checkpoint());
        }
    }
    drop(server);
    node.verify(kind, queued, served, &mut build, "after build");
    verify_replies(&node, kind, &bodies[..served], &mut build, "after build");
    let Node { repo, disks } = node;
    drop(repo);
    disks.crash();
    let image = Image::take(&disks);

    let mut data = run_rounds(kind, scale, seed, seconds, started, |_rng, tally| {
        let wall = Instant::now();
        image.restore();
        let (node, recovery) = Node::reopen(disks.clone(), tally);
        node.verify(kind, queued, served, tally, "after recovery");

        let server = node.server("s0", kind);
        let mut latencies_ns = Vec::with_capacity(queued);
        let before = Counters::read(&node.repo);
        let t = Instant::now();
        let done = drain(&server, usize::MAX, &mut latencies_ns);
        let serve_s = t.elapsed().as_secs_f64();
        let counters = Counters::read(&node.repo).since(&before);
        tally.attempted += queued as u64;
        tally.check(done == Ok(queued), || {
            format!("drain after recovery: {done:?}, expected {queued} committed")
        });
        let serve = Serve {
            seconds: serve_s,
            requests: queued,
            counters,
            rolled: server.stats().rolled,
            latency_p50_us: percentile_us(&mut latencies_ns, 50.0),
        };
        drop(server);
        node.verify(kind, 0, n, tally, "after drain");
        verify_replies(&node, kind, &bodies, tally, "after drain");
        drop(node);
        disks.crash();
        Round {
            serve,
            recovery,
            checkpoint: None,
            wall_s: wall.elapsed().as_secs_f64(),
        }
    });
    data.checkpoints.extend(checkpoint);
    data.tally.failed += build.failed;
    data.tally.failures.extend(build.failures);
    data
}

impl RunData {
    fn new(kind: Kind, scale: Scale) -> RunData {
        RunData {
            serves: Vec::new(),
            recoveries: Vec::new(),
            checkpoints: Vec::new(),
            unmeasured_s: Vec::new(),
            tally: Tally::default(),
            once_s: 0.0,
            warmup_s: 0.0,
            requests_per_round: scale.requests,
            kind,
        }
    }

    /// The six end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let throughput: Vec<f64> = self
            .serves
            .iter()
            .map(|s| s.requests as f64 / s.seconds)
            .collect();
        let wal: Vec<f64> = self
            .serves
            .iter()
            .map(|s| s.counters.wal_bytes as f64 / s.requests as f64)
            .collect();
        let recovery: Vec<f64> = self.recoveries.iter().map(|r| r.seconds).collect();
        let latency: Vec<f64> = self.serves.iter().map(|s| s.latency_p50_us).collect();
        vec![
            Metric::of_rounds("throughput_rps", &throughput),
            Metric::of_rounds("latency_p50_us", &latency),
            Metric::of_rounds("recovery_s", &recovery),
            Metric::of_rounds("wal_bytes_per_req", &wal),
            Metric::single("peak_rss_mb", peak_rss_mb(), 1),
            Metric {
                value: self.once_s + median(&self.unmeasured_s),
                ..Metric::of_rounds("setup_s", &self.unmeasured_s)
            },
        ]
    }
}
