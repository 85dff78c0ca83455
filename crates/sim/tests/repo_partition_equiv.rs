//! Shared-nothing partition equivalence: one partition vs four.
//!
//! Two layers pin DESIGN.md S25's "partitioning is invisible" claim:
//!
//! 1. **Repository lockstep.** Two repositories — one monolithic, one split
//!    into four shared-nothing partitions — run the same deterministic
//!    routed workload (mixed-priority enqueues, committed and aborted
//!    dequeues, element kills) over queues that provably span several
//!    partitions. After every step, and after every scripted crash (whole
//!    node on the monolithic side, a single partition's devices on the
//!    partitioned side), the two must agree on per-queue depths, each index
//!    must match a fresh storage scan, and a final drain must return the
//!    same payloads in the same order. Element *keys* are deliberately not
//!    compared: eids carry the partition epoch band, so keys differ by
//!    construction while the logical queue content may not.
//!
//! 2. **Explorer lockstep.** The
//!    same generated fault scripts run through the full clerk↔RPC↔server
//!    stack at one and at four partitions; the oracle battery (exactly-once
//!    ledger, reply matching, money conservation, balances vs model, metrics
//!    laws) must stay silent in both, and the client must observe the same
//!    replies — asserted via the shared balance model, which both runs must
//!    hit exactly.

use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::{RepoDisks, Repository};
use rrq_sim::explorer::{run_script, ExplorerConfig};
use rrq_sim::script::{FaultEvent, FaultScript};
use rrq_workload::arrivals::SplitMix;
use std::collections::BTreeMap;

/// Spans partitions 3, 2, 3, 1 at four partitions (asserted below) — the
/// lockstep workload genuinely exercises routing, not one lucky home.
const QUEUES: [&str; 4] = ["req", "back", "tight", "delta"];

fn create_queues(repo: &Repository) {
    let mut req = QueueMeta::with_defaults("req");
    req.retry_limit = 3;
    let mut back = QueueMeta::with_defaults("back");
    back.requeue_at_back_on_abort = true;
    let mut tight = QueueMeta::with_defaults("tight");
    tight.retry_limit = 1;
    let delta = QueueMeta::with_defaults("delta");
    for meta in [req, back, tight, delta] {
        let _ = repo.qm_for(&meta.name.clone()).create_queue(meta);
    }
}

fn open(name: &str, disks: &RepoDisks) -> Repository {
    Repository::open(name, disks.clone()).unwrap().0
}

/// One deterministic workload step, routed to the owning partition; must be
/// called with identical rng state and repo state on both sides.
fn step(repo: &Repository, rng: &mut SplitMix, serial: u64) {
    let queue = QUEUES[(rng.next_u64() % QUEUES.len() as u64) as usize];
    let qm = repo.qm_for(queue);
    let (h, _) = qm.register(queue, "driver", false).unwrap();
    match rng.next_u64() % 5 {
        0 | 1 => {
            let n = 1 + rng.next_u64() % 3;
            for i in 0..n {
                let prio = (rng.next_u64() % 3) as u8;
                repo.autocommit_on(queue, |t| {
                    qm.enqueue(
                        t.id().raw(),
                        &h,
                        format!("payload-{serial}-{i}").as_bytes(),
                        EnqueueOptions {
                            priority: prio,
                            ..EnqueueOptions::default()
                        },
                    )
                })
                .unwrap();
            }
        }
        2 => {
            let _ = repo.autocommit_on(queue, |t| {
                qm.dequeue(t.id().raw(), &h, DequeueOptions::default())
            });
        }
        3 => {
            if let Ok((txn, _)) = repo.begin_on(queue) {
                let _ = qm.dequeue(txn.id().raw(), &h, DequeueOptions::default());
                let _ = txn.abort();
            }
        }
        _ => {
            if let Some((_, entries)) = qm.index_snapshot().into_iter().find(|(q, _)| q == queue) {
                if let Some((_, eid)) = entries.first() {
                    let _ = qm.kill_element(*eid);
                }
            }
        }
    }
}

/// The two repositories must be logically indistinguishable, and each
/// internally consistent with its own storage.
fn assert_pair_equivalent(mono: &Repository, part: &Repository, ctx: &str) {
    for (label, repo) in [("mono", mono), ("part", part)] {
        for p in 0..repo.partitions() {
            assert_eq!(
                repo.qm_at(p).index_divergence().unwrap(),
                None,
                "{ctx}: {label} p{p} index diverged from its storage"
            );
            assert_eq!(
                repo.qm_at(p).retention_divergence().unwrap(),
                None,
                "{ctx}: {label} p{p} retains what no registration names"
            );
        }
        for q in QUEUES {
            assert_eq!(
                repo.qm_for(q).depth(q).unwrap(),
                repo.qm_for(q).depth_scan(q).unwrap(),
                "{ctx}: {label} depth mismatch on {q:?}"
            );
        }
    }
    for q in QUEUES {
        assert_eq!(
            mono.qm_for(q).depth(q).unwrap(),
            part.qm_for(q).depth(q).unwrap(),
            "{ctx}: depth of {q:?} diverged between partition counts"
        );
    }
}

/// Drain every queue on both repositories and compare payload order — the
/// strongest observable-equivalence check that survives eid banding.
fn assert_drains_equal(mono: &Repository, part: &Repository, ctx: &str) {
    let drain = |repo: &Repository| -> BTreeMap<String, Vec<Vec<u8>>> {
        let mut out = BTreeMap::new();
        for q in QUEUES {
            let qm = repo.qm_for(q);
            let (h, _) = qm.register(q, "drain", false).unwrap();
            let mut payloads = Vec::new();
            while let Ok(elem) = repo.autocommit_on(q, |t| {
                qm.dequeue(t.id().raw(), &h, DequeueOptions::default())
            }) {
                payloads.push(elem.payload);
            }
            out.insert(q.to_string(), payloads);
        }
        out
    };
    assert_eq!(
        drain(mono),
        drain(part),
        "{ctx}: drained payload sequences diverged between partition counts"
    );
}

fn run_pair(seed: u64) {
    let script = FaultScript::generate(seed);
    let crashes: Vec<FaultEvent> = script
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                FaultEvent::ServerCrash { .. } | FaultEvent::RepoCrash { .. }
            )
        })
        .copied()
        .collect();

    let disks_m = RepoDisks::new();
    let disks_p = RepoDisks::partitioned(4);
    let mut mono = open("req-mono", &disks_m);
    let mut part = open("req-part", &disks_p);
    let homes: std::collections::BTreeSet<usize> =
        QUEUES.iter().map(|q| part.partition_of(q)).collect();
    assert!(
        homes.len() >= 3,
        "workload queues must span several partitions, got homes {homes:?}"
    );
    create_queues(&mono);
    create_queues(&part);
    let mut rng_m = SplitMix::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut rng_p = SplitMix::new(seed ^ 0x9E37_79B9_7F4A_7C15);

    for serial in 1..=script.n_requests {
        step(&mono, &mut rng_m, serial);
        step(&part, &mut rng_p, serial);
        for ev in &crashes {
            let (es, torn, part_hit) = match *ev {
                FaultEvent::ServerCrash {
                    serial: es, torn, ..
                } => (es, torn, None),
                FaultEvent::RepoCrash {
                    serial: es,
                    part: p,
                    torn,
                } => (es, torn, Some(p as usize)),
                _ => continue,
            };
            if es != serial {
                continue;
            }
            drop(mono);
            drop(part);
            match part_hit {
                // Whole-node crash on both sides.
                None => {
                    disks_m.crash_with(torn);
                    disks_p.crash_with(torn);
                }
                // Partition-scoped: the monolithic twin's only partition is
                // its whole node; the partitioned side loses one partition's
                // devices while its siblings keep even unsynced bytes.
                Some(p) => {
                    disks_m.crash_partition(0, torn);
                    disks_p.crash_partition(p % 4, torn);
                }
            }
            mono = open("req-mono", &disks_m);
            part = open("req-part", &disks_p);
            create_queues(&mono);
            create_queues(&part);
            assert_pair_equivalent(
                &mono,
                &part,
                &format!("seed {seed} crash at {serial} (part {part_hit:?}, {torn:?})"),
            );
        }
        assert_pair_equivalent(&mono, &part, &format!("seed {seed} serial {serial}"));
    }

    // Final clean restart, then drain: logical content must match exactly.
    drop(mono);
    drop(part);
    disks_m.crash();
    disks_p.crash();
    let mono = open("req-mono", &disks_m);
    let part = open("req-part", &disks_p);
    create_queues(&mono);
    create_queues(&part);
    assert_pair_equivalent(&mono, &part, &format!("seed {seed} final restart"));
    assert_drains_equal(&mono, &part, &format!("seed {seed} final drain"));
}

#[test]
fn partitioned_repository_matches_monolithic_across_crash_schedules() {
    for seed in 0..16 {
        run_pair(seed);
    }
}

/// Full-stack lockstep: the same generated fault scripts must leave the
/// oracle battery silent at one *and* at four repository partitions — same
/// replies (both runs hit the same balance model exactly), same ledger
/// (exactly-once in both), money conserved in both.
#[test]
fn generated_scripts_pass_oracles_at_one_and_four_partitions() {
    for seed in 1..=10u64 {
        let script = FaultScript::generate(seed);
        for parts in [1usize, 4] {
            let cfg = ExplorerConfig {
                repo_partitions: Some(parts),
                ..ExplorerConfig::default()
            };
            let outcome = run_script(&script, &cfg);
            assert_eq!(
                outcome.violations,
                Vec::<String>::new(),
                "seed {seed} at {parts} partition(s) tripped the oracle battery"
            );
        }
    }
}
