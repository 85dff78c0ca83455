//! The deterministic fault-schedule explorer.
//!
//! Runs the bank workload through the full client↔QM stack — clerk over RPC
//! over the fault-injectable bus, against a crash-restartable server node —
//! under one [`FaultScript`], then checks the entire oracle battery:
//! exactly-once request processing ([`EffectLedger`]), request/reply
//! matching and reply multiplicity ([`ReplyMatcher`]), money conservation,
//! and Fig 1 / Fig 5 protocol conformance (`rrq-check`).
//!
//! Determinism contract: the run's [`RunOutcome::digest`] is an FNV-1a hash
//! of the client-observable trace only (operations attempted, their
//! outcomes, incarnation boundaries, final oracle summary). The same script
//! always produces the same digest — partitions fail fast at the sender,
//! delays stay far below the RPC timeout, and no wall-clock value enters the
//! trace — so a failing seed replays bit-identically.

use crate::driver::CrashPoint;
use crate::node::{ServerFactory, ServerNodeSim};
use crate::oracle::{metrics_conservation, store_self_checks, EffectLedger, ReplyMatcher};
use crate::script::{point_name, FaultEvent, FaultScript, PartitionDirection};
use rrq_check::protocol::Conformance;
use rrq_core::api::QmApi;
use rrq_core::clerk::{Clerk, ClerkConfig, SendMode};
use rrq_core::client::ReplyProcessor;
use rrq_core::error::CoreError;
use rrq_core::remote::{QmRpcServer, RemoteQm};
use rrq_core::request::Reply;
use rrq_core::rid::Rid;
use rrq_core::route::RoutedQm;
use rrq_core::server::{Server, ServerConfig};
use rrq_net::rpc::ServerGuard;
use rrq_net::{FaultPlan, NetworkBus};
use rrq_qm::repository::{RepoOptions, Repository};
use rrq_qm::route::MAX_REPO_PARTITIONS;
use rrq_workload::bank::{self, Transfer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The one client identity every script drives.
pub const CLIENT_ID: &str = "c1";
const CLIENT_EP: &str = "cl.c1";
const QM_EP: &str = "qm";
const REQ_QUEUE: &str = "req";
/// Short per-RPC timeout: partitions fail fast at the sender, so the only
/// waiting left is the lost-reply direction (request delivered, response
/// cut), which costs one timeout per failed operation.
const RPC_TIMEOUT: Duration = Duration::from_millis(150);
/// Generous receive window for the fault-free path — the reply always
/// arrives, it is never a timeout race.
const RECEIVE_BLOCK: Duration = Duration::from_secs(10);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Deliberate protocol bugs the explorer can inject into its own client
/// loop, to prove the oracles (and the shrinker) actually bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// During resynchronization, when the last reply was received but cannot
    /// be proven processed, skip the Rereceive and assume it was — breaking
    /// at-least-once reply processing (§3's central obligation).
    SkipRereceive,
    /// Double every `qm.enqueue.committed` increment (an accounting bug in
    /// the instrumentation layer, not the protocol) — client-invisible, so
    /// only the metrics-conservation oracle can catch it.
    DoubleCountEnqueue,
}

/// Explorer parameters shared by a whole sweep.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Bank accounts in the workload.
    pub accounts: u32,
    /// Initial balance per account (cents).
    pub initial_balance: i64,
    /// Deliberate client bug to inject (tests of the harness itself).
    pub bug: Option<InjectedBug>,
    /// Where failing scripts are persisted as replayable files.
    pub out_dir: Option<PathBuf>,
    /// Shared-nothing repository partitions (DESIGN.md S25). Above one, the
    /// node serves one RPC endpoint per partition, the clerk routes through
    /// [`RoutedQm`], `repo-crash` events strike a single partition's
    /// devices, and `part-partition` events cut one endpoint's link only.
    /// `None` runs a single script on one partition and lets a sweep choose
    /// per seed ([`sweep_partitions`]).
    pub repo_partitions: Option<usize>,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            accounts: 4,
            initial_balance: 10_000,
            bug: None,
            out_dir: None,
            repo_partitions: None,
        }
    }
}

/// What one script run observed.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// FNV-1a digest of the client-observable trace (determinism handle).
    pub digest: u64,
    /// Oracle violations — empty means the guarantees held.
    pub violations: Vec<String>,
    /// The trace the digest covers, for diagnostics.
    pub trace: Vec<String>,
    /// Client process incarnations (1 = no client crash or network outage).
    pub incarnations: u64,
    /// Server node crashes injected.
    pub server_crashes: u64,
}

impl RunOutcome {
    /// Did any oracle fire?
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// The deterministic transfer for a serial: neighbouring accounts, amount
/// varied by serial so misdirected effects shift balances detectably.
pub fn transfer_for(serial: u64, accounts: u32) -> Transfer {
    let n = u64::from(accounts.max(2));
    Transfer {
        from: (serial % n) as u32,
        to: ((serial + 1) % n) as u32,
        amount: 100 + (serial as i64 % 7) * 10,
    }
}

fn expected_balances(cfg: &ExplorerConfig, n_requests: u64) -> Vec<i64> {
    let mut balances = vec![cfg.initial_balance; cfg.accounts as usize];
    for serial in 1..=n_requests {
        let t = transfer_for(serial, cfg.accounts);
        balances[t.from as usize] -= t.amount;
        balances[t.to as usize] += t.amount;
    }
    balances
}

/// The testable device: a processed-reply counter whose checkpoint is the
/// count — §3's ticket-printer argument in its simplest form. Every
/// processed reply is also recorded with the [`ReplyMatcher`].
struct CountingProcessor {
    processed: u64,
    matcher: Arc<ReplyMatcher>,
}

impl ReplyProcessor for CountingProcessor {
    fn checkpoint(&mut self) -> Vec<u8> {
        self.processed.to_le_bytes().to_vec()
    }

    fn process(&mut self, rid: &Rid, reply: &Reply) {
        self.processed += 1;
        self.matcher.record(rid, reply);
    }

    fn already_processed(&mut self, _rid: &Rid, ckpt: Option<&[u8]>) -> bool {
        let at = ckpt
            .and_then(|c| c.try_into().ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        self.processed > at
    }
}

/// RPC endpoint of repository partition `p`. Partition 0 keeps the legacy
/// name so single-partition runs are byte-identical to the historical trace.
fn qm_ep(p: usize) -> String {
    if p == 0 {
        QM_EP.to_string()
    } else {
        format!("{QM_EP}.p{p}")
    }
}

/// Client-side endpoint used to talk to partition `p`. Distinct per
/// partition because [`NetworkBus::endpoint`] replaces any existing sender
/// registered under a name — each `RemoteQm` needs its own reply mailbox.
fn client_ep(p: usize) -> String {
    if p == 0 {
        CLIENT_EP.to_string()
    } else {
        format!("{CLIENT_EP}.p{p}")
    }
}

fn make_clerk(bus: &NetworkBus, parts: usize) -> Clerk {
    let mut cfg = ClerkConfig::new(CLIENT_ID, REQ_QUEUE);
    cfg.receive_block = RECEIVE_BLOCK;
    cfg.send_mode = SendMode::Acked;
    let api: Arc<dyn QmApi> = if parts <= 1 {
        let mut api = RemoteQm::new(bus, CLIENT_EP, QM_EP);
        api.set_rpc_timeout(RPC_TIMEOUT);
        Arc::new(api)
    } else {
        let apis: Vec<Arc<dyn QmApi>> = (0..parts)
            .map(|p| {
                let mut api = RemoteQm::new(bus, &client_ep(p), &qm_ep(p));
                api.set_rpc_timeout(RPC_TIMEOUT);
                Arc::new(api) as Arc<dyn QmApi>
            })
            .collect();
        Arc::new(RoutedQm::new(apis))
    };
    Clerk::new(api, cfg)
}

/// Serve the repository over RPC: one endpoint for the whole node at one
/// partition, one scope-checked endpoint per partition above that.
fn spawn_rpc(bus: &NetworkBus, repo: Arc<Repository>, parts: usize) -> Vec<ServerGuard> {
    if parts <= 1 {
        vec![QmRpcServer::spawn(bus, QM_EP, repo)]
    } else {
        (0..parts)
            .map(|p| QmRpcServer::spawn_partition(bus, &qm_ep(p), Arc::clone(&repo), p))
            .collect()
    }
}

/// A failed client operation: trace it, and spend one unit of the active
/// partition's outage budget (healing every cut when the budget runs out, so
/// every script terminates).
fn op_failed(
    trace: &mut Vec<String>,
    outage: &mut Option<u32>,
    faults: &FaultPlan,
    parts: usize,
    op: &str,
    serial: u64,
    e: &CoreError,
) {
    trace.push(format!("{op} {serial} err={e}"));
    if let Some(remaining) = outage.as_mut() {
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            for p in 0..parts {
                faults.heal_pair(&client_ep(p), &qm_ep(p));
            }
            *outage = None;
            trace.push("heal".into());
        }
    }
}

/// Fire the pending client-crash event for `(serial, point)`, if any.
fn fire_client_crash(
    events: &mut [(FaultEvent, bool)],
    serial: u64,
    point: CrashPoint,
    trace: &mut Vec<String>,
) -> bool {
    for (ev, applied) in events.iter_mut() {
        if *applied {
            continue;
        }
        if let FaultEvent::ClientCrash {
            serial: es,
            point: p,
        } = *ev
        {
            if es == serial && p == point {
                *applied = true;
                trace.push(format!("client-crash {serial} {}", point_name(point)));
                return true;
            }
        }
    }
    false
}

/// Run `script` in a fresh conformance session.
pub fn run_script(script: &FaultScript, cfg: &ExplorerConfig) -> RunOutcome {
    let (checker, _session) = Conformance::install();
    run_script_with(script, cfg, &checker)
}

/// Run `script` against an already-installed [`Conformance`] checker (sweep
/// mode: one observer session, reset per script). `checker` must be the
/// installed observer, or protocol events go unchecked.
pub fn run_script_with(
    script: &FaultScript,
    cfg: &ExplorerConfig,
    checker: &Conformance,
) -> RunOutcome {
    checker.reset();
    // Fresh metrics session per script: counters start at zero, and every
    // law in [`metrics_conservation`] refers to this run alone. Declared
    // before the node so it outlives the repository (the depth gauge's
    // retire-on-drop must still be observed).
    let obs = rrq_obs::Session::start();
    if cfg.bug == Some(InjectedBug::DoubleCountEnqueue) {
        obs.double_count(Some("qm.enqueue.committed"));
    }
    let mut trace: Vec<String> = script
        .encode()
        .lines()
        .map(|l| format!("script {l}"))
        .collect();
    let mut violations: Vec<String> = Vec::new();

    let bus = NetworkBus::new(script.seed);
    bus.faults().set_fail_fast(true);

    let matcher = Arc::new(ReplyMatcher::new());
    let mut processor = CountingProcessor {
        processed: 0,
        matcher: Arc::clone(&matcher),
    };

    // Server names are unique per node incarnation: a thread killed
    // mid-request leaves its conformance machine parked in Processing, and a
    // reused name would trip the checker on the next boot.
    let incarnation_counter = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&incarnation_counter);
    let factory: ServerFactory = Arc::new(move |repo| {
        let i = counter.fetch_add(1, Ordering::AcqRel);
        let scfg = ServerConfig::new(format!("srv-i{i}"), REQ_QUEUE);
        Ok(vec![Server::new(
            Arc::clone(repo),
            scfg,
            EffectLedger::instrument(bank::single_txn_handler()),
        )?])
    });
    let mut node = ServerNodeSim::with_factory(
        format!("exp-{}", script.seed),
        vec![REQ_QUEUE.into(), format!("reply.{CLIENT_ID}")],
        factory,
    );
    let parts = cfg
        .repo_partitions
        .unwrap_or(1)
        .clamp(1, MAX_REPO_PARTITIONS);
    node.set_repo_options(RepoOptions {
        repo_partitions: parts,
        ..RepoOptions::default()
    });
    node.start().expect("initial server boot failed");
    bank::seed_accounts(&node.repo(), cfg.accounts, cfg.initial_balance)
        .expect("seeding accounts failed");
    let mut rpc = spawn_rpc(&bus, node.repo(), parts);

    let mut events: Vec<(FaultEvent, bool)> = script.events.iter().map(|e| (*e, false)).collect();
    let mut outage: Option<u32> = None;
    let mut delay_active = false;
    let mut incarnations = 0u64;
    // Every fault event costs a bounded number of extra incarnations
    // (partitions: one per budgeted failed op); beyond that is livelock.
    let max_incarnations = 3 * script.n_requests + 8 * script.events.len() as u64 + 20;

    'incarnation: loop {
        incarnations += 1;
        if incarnations > max_incarnations {
            violations.push(format!(
                "livelock: exceeded {max_incarnations} incarnations"
            ));
            break 'incarnation;
        }
        trace.push(format!("incarnation {incarnations}"));
        let clerk = make_clerk(&bus, parts);
        let info = match clerk.connect() {
            Ok(i) => i,
            Err(e) => {
                op_failed(
                    &mut trace,
                    &mut outage,
                    bus.faults(),
                    parts,
                    "connect",
                    0,
                    &e,
                );
                continue 'incarnation;
            }
        };
        trace.push(format!(
            "resync s={:?} r={:?}",
            info.s_rid.as_ref().map(|r| r.serial),
            info.r_rid.as_ref().map(|r| r.serial)
        ));

        // --- Fig 2 resynchronization ---
        let mut serial_done = 0u64;
        match (&info.s_rid, &info.r_rid) {
            (None, _) => {}
            (Some(s), r) if r.as_ref() != Some(s) => {
                // Request outstanding, reply never received.
                let ckpt = processor.checkpoint();
                match clerk.receive(&ckpt) {
                    Ok(reply) => {
                        if reply.rid != *s {
                            violations.push(format!(
                                "resync mismatch: outstanding {s}, reply for {}",
                                reply.rid
                            ));
                            break 'incarnation;
                        }
                        processor.process(s, &reply);
                        trace.push(format!("resync-received {}", s.serial));
                        serial_done = s.serial;
                    }
                    Err(e) => {
                        op_failed(
                            &mut trace,
                            &mut outage,
                            bus.faults(),
                            parts,
                            "receive",
                            s.serial,
                            &e,
                        );
                        continue 'incarnation;
                    }
                }
            }
            (Some(s), _) => {
                if processor.already_processed(s, info.ckpt.as_deref()) {
                    trace.push(format!("resync-already-processed {}", s.serial));
                } else if cfg.bug == Some(InjectedBug::SkipRereceive) {
                    trace.push(format!("bug: skipped rereceive of {}", s.serial));
                } else {
                    match clerk.rereceive() {
                        Ok(reply) => {
                            processor.process(s, &reply);
                            trace.push(format!("resync-reprocessed {}", s.serial));
                        }
                        Err(e) => {
                            op_failed(
                                &mut trace,
                                &mut outage,
                                bus.faults(),
                                parts,
                                "rereceive",
                                s.serial,
                                &e,
                            );
                            continue 'incarnation;
                        }
                    }
                }
                serial_done = s.serial;
            }
        }

        // --- main request loop ---
        let mut serial = serial_done + 1;
        while serial <= script.n_requests {
            // Client crashes anchored to serials resync already finished can
            // never fire.
            for (ev, applied) in events.iter_mut() {
                if !*applied && matches!(ev, FaultEvent::ClientCrash { .. }) && ev.serial() < serial
                {
                    *applied = true;
                }
            }
            // Network events (partitions, delays) due at or before this
            // serial take effect before its send.
            for (ev, applied) in events.iter_mut() {
                if *applied || ev.serial() > serial {
                    continue;
                }
                match *ev {
                    FaultEvent::Partition { direction, ops, .. } => {
                        *applied = true;
                        // A node-wide cut severs every partition's link.
                        for p in 0..parts {
                            let (c, q) = (client_ep(p), qm_ep(p));
                            match direction {
                                PartitionDirection::ClientToQm => bus.faults().partition(&c, &q),
                                PartitionDirection::QmToClient => bus.faults().partition(&q, &c),
                                PartitionDirection::Both => bus.faults().partition_pair(&c, &q),
                            }
                        }
                        outage = Some(outage.map_or(ops, |r| r.max(ops)));
                        trace.push(format!("partition {} ops={ops}", direction.name()));
                    }
                    FaultEvent::PartPartition {
                        part,
                        direction,
                        ops,
                        ..
                    } => {
                        *applied = true;
                        // Directional cut of ONE partition's link; the rest
                        // of the cluster stays reachable, so only requests
                        // routed at the cut partition fail.
                        let p = part as usize % parts;
                        let (c, q) = (client_ep(p), qm_ep(p));
                        match direction {
                            PartitionDirection::ClientToQm => bus.faults().partition(&c, &q),
                            PartitionDirection::QmToClient => bus.faults().partition(&q, &c),
                            PartitionDirection::Both => bus.faults().partition_pair(&c, &q),
                        }
                        outage = Some(outage.map_or(ops, |r| r.max(ops)));
                        trace.push(format!(
                            "part-partition p{p} {} ops={ops}",
                            direction.name()
                        ));
                    }
                    FaultEvent::Delay { millis, .. } => {
                        *applied = true;
                        let d = Duration::from_millis(millis);
                        for p in 0..parts {
                            let (c, q) = (client_ep(p), qm_ep(p));
                            bus.faults().set_delay(&c, &q, d);
                            bus.faults().set_delay(&q, &c, d);
                        }
                        delay_active = true;
                        trace.push(format!("delay {millis}ms"));
                    }
                    _ => {}
                }
            }

            let rid = Rid::new(CLIENT_ID, serial);
            match clerk.send(
                "transfer",
                transfer_for(serial, cfg.accounts).encode(),
                rid.clone(),
            ) {
                Ok(()) => trace.push(format!("send {serial} ok")),
                Err(e) => {
                    op_failed(
                        &mut trace,
                        &mut outage,
                        bus.faults(),
                        parts,
                        "send",
                        serial,
                        &e,
                    );
                    continue 'incarnation;
                }
            }
            if fire_client_crash(&mut events, serial, CrashPoint::AfterSend, &mut trace) {
                continue 'incarnation;
            }

            // Server crashes due at or before this serial fire after its
            // send: the request is stably queued, the node dies and recovers,
            // and the reply must still come. `repo-crash` is the
            // partition-scoped variant: only one partition's devices lose
            // their volatile bytes, but the process (and so every RPC
            // endpoint) still bounces.
            for (ev, applied) in events.iter_mut() {
                if *applied {
                    continue;
                }
                let crashed = match *ev {
                    FaultEvent::ServerCrash { serial: es, torn } if es <= serial => {
                        rpc.clear();
                        node.crash_with(torn);
                        trace.push(match torn {
                            Some(m) => format!("server-crash torn={}", m.name()),
                            None => "server-crash".into(),
                        });
                        true
                    }
                    FaultEvent::RepoCrash {
                        serial: es,
                        part,
                        torn,
                    } if es <= serial => {
                        rpc.clear();
                        let p = part as usize % parts;
                        node.crash_partition(p, torn);
                        trace.push(match torn {
                            Some(m) => format!("repo-crash p{p} torn={}", m.name()),
                            None => format!("repo-crash p{p}"),
                        });
                        true
                    }
                    _ => false,
                };
                if crashed {
                    *applied = true;
                    match node.start() {
                        Ok(_) => rpc = spawn_rpc(&bus, node.repo(), parts),
                        Err(e) => {
                            violations.push(format!("server recovery failed: {e}"));
                            break 'incarnation;
                        }
                    }
                }
            }

            let ckpt = processor.checkpoint();
            match clerk.receive(&ckpt) {
                Ok(reply) => {
                    if reply.rid != rid {
                        violations.push(format!(
                            "reply mismatch: sent {rid}, got reply for {}",
                            reply.rid
                        ));
                        break 'incarnation;
                    }
                    if fire_client_crash(&mut events, serial, CrashPoint::AfterReceive, &mut trace)
                    {
                        continue 'incarnation;
                    }
                    processor.process(&rid, &reply);
                    trace.push(format!("recv {serial} ok"));
                    if fire_client_crash(&mut events, serial, CrashPoint::AfterProcess, &mut trace)
                    {
                        continue 'incarnation;
                    }
                }
                Err(e) => {
                    op_failed(
                        &mut trace,
                        &mut outage,
                        bus.faults(),
                        parts,
                        "receive",
                        serial,
                        &e,
                    );
                    continue 'incarnation;
                }
            }

            if delay_active {
                for p in 0..parts {
                    let (c, q) = (client_ep(p), qm_ep(p));
                    bus.faults().set_delay(&c, &q, Duration::ZERO);
                    bus.faults().set_delay(&q, &c, Duration::ZERO);
                }
                delay_active = false;
                trace.push("delay cleared".into());
            }
            serial += 1;
        }

        match clerk.disconnect() {
            Ok(()) => trace.push("disconnect ok".into()),
            Err(e) => trace.push(format!("disconnect err={e}")),
        }
        break 'incarnation;
    }

    // --- oracle battery ---
    bus.faults().heal_all();
    let server_crashes = node.crash_count();
    if node.is_up() {
        let repo = node.repo();
        let expected: Vec<Rid> = (1..=script.n_requests)
            .map(|s| Rid::new(CLIENT_ID, s))
            .collect();
        match EffectLedger::violations(&repo, &expected) {
            Ok(v) => violations.extend(v),
            Err(e) => violations.push(format!("effect ledger unreadable: {e}")),
        }
        violations.extend(matcher.mismatches());
        for r in matcher.missing(&expected) {
            violations.push(format!("reply for {r} never processed"));
        }
        let mut dups = matcher.duplicated();
        dups.sort_by_key(|(r, _)| r.serial);
        for (r, n) in dups {
            violations.push(format!(
                "reply for {r} processed {n} times (device is testable)"
            ));
        }
        let want_total = i64::from(cfg.accounts) * cfg.initial_balance;
        match bank::total_money(&repo, cfg.accounts) {
            Ok(t) if t == want_total => {}
            Ok(t) => violations.push(format!("money not conserved: {t} != {want_total}")),
            Err(e) => violations.push(format!("total_money unreadable: {e}")),
        }
        match bank::clearing_count(&repo) {
            Ok(c) if c as u64 == script.n_requests => {}
            Ok(c) => violations.push(format!(
                "clearing count {c} != {} requests",
                script.n_requests
            )),
            Err(e) => violations.push(format!("clearing count unreadable: {e}")),
        }
        let model = expected_balances(cfg, script.n_requests);
        for i in 0..cfg.accounts {
            match bank::balance(&repo, i) {
                Ok(b) if b == model[i as usize] => {}
                Ok(b) => violations.push(format!(
                    "account {i} balance {b} != model {}",
                    model[i as usize]
                )),
                Err(e) => violations.push(format!("balance {i} unreadable: {e}")),
            }
            trace.push(format!("balance {i}={}", model[i as usize]));
        }
        // Metrics conservation and the stores' self-checks, only on
        // otherwise-clean runs: violation paths (livelock in particular)
        // leave servers mid-flight, where a counter snapshot is not a
        // quiescent point and its noise would make the digest
        // nondeterministic.
        if violations.is_empty() {
            violations.extend(store_self_checks(&repo));
            let ledger_total = EffectLedger::counts(&repo)
                .map(|c| c.values().map(|&n| u64::from(n)).sum::<u64>())
                .unwrap_or(0);
            violations.extend(metrics_conservation(&obs.snapshot(), &repo, ledger_total));
        }
    }
    for v in checker.violations() {
        violations.push(format!("conformance: {}: {}", v.entity, v.detail));
    }
    // Oracle iteration order (HashMaps inside the ledger and matcher) must
    // not leak into the digest.
    violations.sort();

    rpc.clear();
    node.shutdown();

    trace.push(format!("incarnations {incarnations}"));
    trace.push(format!("server-crashes {server_crashes}"));
    trace.push(format!("violations {}", violations.len()));
    for v in &violations {
        trace.push(format!("violation {v}"));
    }
    let mut digest = FNV_OFFSET;
    for line in &trace {
        digest = fnv1a(digest, line.as_bytes());
        digest = fnv1a(digest, b"\n");
    }
    RunOutcome {
        digest,
        violations,
        trace,
        incarnations,
        server_crashes,
    }
}

/// One failing script of a sweep.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// The script's generation seed.
    pub seed: u64,
    /// The partition count it ran on (the `repo_partitions` to replay with).
    pub repo_partitions: usize,
    /// The failing run.
    pub outcome: RunOutcome,
    /// The script itself.
    pub script: FaultScript,
    /// Where the replayable script file was written (when
    /// [`ExplorerConfig::out_dir`] is set).
    pub script_path: Option<PathBuf>,
}

/// What a sweep observed.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Scripts executed.
    pub scripts_run: u64,
    /// FNV-1a fold of every per-script digest — one number summarizing the
    /// whole sweep's behaviour.
    pub digest_of_digests: u64,
    /// Scripts whose oracles fired.
    pub failures: Vec<SweepFailure>,
}

/// The partition count a sweep runs `seed`'s script on when the
/// configuration names none: every fourth seed gets a four-partition
/// repository, so one sweep covers the single repository and the
/// shared-nothing cluster in the 3 : 1 proportion of the two sweeps it
/// replaced.
pub fn sweep_partitions(seed: u64) -> usize {
    if seed.is_multiple_of(4) {
        4
    } else {
        1
    }
}

/// Run `count` generated scripts starting at `first_seed` under one
/// conformance session (reset per script). Failing scripts are persisted to
/// [`ExplorerConfig::out_dir`] as replayable files, each with its evidence
/// beside it: `fail-seed-<n>.violations.txt` holds the violations, then the
/// trace.
pub fn run_sweep(first_seed: u64, count: u64, cfg: &ExplorerConfig) -> SweepReport {
    let (checker, _session) = Conformance::install();
    let mut digest = FNV_OFFSET;
    let mut failures = Vec::new();
    let mut run_cfg = cfg.clone();
    for seed in first_seed..first_seed.saturating_add(count) {
        let script = FaultScript::generate(seed);
        let repo_partitions = cfg
            .repo_partitions
            .unwrap_or_else(|| sweep_partitions(seed));
        run_cfg.repo_partitions = Some(repo_partitions);
        let outcome = run_script_with(&script, &run_cfg, &checker);
        digest = fnv1a(digest, &outcome.digest.to_le_bytes());
        if outcome.failed() {
            let script_path = cfg.out_dir.as_ref().and_then(|d| {
                let p = d.join(format!("fail-seed-{seed}.rrqs"));
                script.write_to(&p).ok()?;
                let evidence = [&outcome.violations[..], &outcome.trace[..]].concat();
                let _ = std::fs::write(p.with_extension("violations.txt"), evidence.join("\n"));
                Some(p)
            });
            failures.push(SweepFailure {
                seed,
                repo_partitions,
                outcome,
                script: script.clone(),
                script_path,
            });
        }
    }
    SweepReport {
        scripts_run: count,
        digest_of_digests: digest,
        failures,
    }
}

/// Decode and re-run a persisted script file.
pub fn replay_file(path: &Path, cfg: &ExplorerConfig) -> Result<(FaultScript, RunOutcome), String> {
    let script = FaultScript::read_from(path)?;
    let outcome = run_script(&script, cfg);
    Ok((script, outcome))
}
