//! The deterministic fault-schedule explorer, end to end: clean sweeps,
//! digest reproducibility, failure persistence + replay, and shrinking a
//! deliberately injected protocol bug down to a minimal script.

use rrq_core::api::LocalQm;
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::client::ReplyProcessor;
use rrq_core::request::Reply;
use rrq_core::rid::Rid;
use rrq_core::server::{Handler, HandlerOutcome, Server, ServerConfig};
use rrq_qm::repository::Repository;
use rrq_sim::driver::CrashPoint;
use rrq_sim::explorer::{self, run_script, run_sweep, ExplorerConfig, InjectedBug};
use rrq_sim::oracle::ReplyMatcher;
use rrq_sim::schedule::CrashSchedule;
use rrq_sim::script::{FaultEvent, FaultScript, PartitionDirection};
use rrq_sim::shrink::shrink;
use rrq_sim::ClientCrashDriver;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn quiet_script_is_clean_and_deterministic() {
    let script = FaultScript::quiet(5);
    let cfg = ExplorerConfig::default();
    let a = run_script(&script, &cfg);
    assert_eq!(a.violations, Vec::<String>::new(), "trace:\n{:#?}", a.trace);
    assert_eq!(a.incarnations, 1);
    let b = run_script(&script, &cfg);
    assert_eq!(a.digest, b.digest, "same script, different digests");
}

#[test]
fn all_fault_dimensions_in_one_script_stay_clean_and_replay_identically() {
    use rrq_storage::disk::TornWriteMode;
    let script = FaultScript {
        seed: 0,
        n_requests: 6,
        events: vec![
            FaultEvent::Delay {
                serial: 1,
                millis: 10,
            },
            FaultEvent::ClientCrash {
                serial: 2,
                point: CrashPoint::AfterSend,
            },
            FaultEvent::ServerCrash {
                serial: 3,
                torn: Some(TornWriteMode::Midway),
            },
            FaultEvent::Partition {
                serial: 4,
                direction: PartitionDirection::Both,
                ops: 2,
            },
            FaultEvent::ClientCrash {
                serial: 5,
                point: CrashPoint::AfterProcess,
            },
        ],
    };
    let cfg = ExplorerConfig::default();
    let a = run_script(&script, &cfg);
    assert_eq!(a.violations, Vec::<String>::new(), "trace:\n{:#?}", a.trace);
    assert!(
        a.incarnations >= 3,
        "crashes and the cut force incarnations"
    );
    assert_eq!(a.server_crashes, 1);
    let b = run_script(&script, &cfg);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn sweep_of_generated_scripts_has_zero_violations() {
    let report = run_sweep(1, 40, &ExplorerConfig::default());
    let detail: Vec<_> = report
        .failures
        .iter()
        .map(|f| (f.seed, f.outcome.violations.clone()))
        .collect();
    assert!(detail.is_empty(), "violating seeds: {detail:#?}");
    assert_eq!(report.scripts_run, 40);
}

#[test]
fn sweep_digest_is_reproducible_across_runs() {
    let cfg = ExplorerConfig::default();
    let a = run_sweep(500, 8, &cfg);
    let b = run_sweep(500, 8, &cfg);
    assert_eq!(a.digest_of_digests, b.digest_of_digests);
    assert!(a.failures.is_empty() && b.failures.is_empty());
}

#[test]
fn injected_bug_is_caught_persisted_shrunk_and_replayable() {
    use rrq_storage::disk::TornWriteMode;
    let buggy = ExplorerConfig {
        bug: Some(InjectedBug::SkipRereceive),
        ..ExplorerConfig::default()
    };
    // A noisy multi-fault script whose only *real* trigger is the
    // after-receive client crash (the bug skips the rereceive it forces).
    let script = FaultScript {
        seed: 0,
        n_requests: 4,
        events: vec![
            FaultEvent::ServerCrash {
                serial: 1,
                torn: Some(TornWriteMode::Midway),
            },
            FaultEvent::Delay {
                serial: 1,
                millis: 15,
            },
            FaultEvent::ClientCrash {
                serial: 2,
                point: CrashPoint::AfterReceive,
            },
        ],
    };
    let outcome = run_script(&script, &buggy);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.contains("never processed")),
        "bug not caught: {:?}",
        outcome.violations
    );

    let report = shrink(&script, &buggy);
    assert!(report.input_failed);
    assert!(
        report.script.events.len() <= 3,
        "shrinker left {} events",
        report.script.events.len()
    );
    assert_eq!(
        report.script.events,
        vec![FaultEvent::ClientCrash {
            serial: 2,
            point: CrashPoint::AfterReceive,
        }],
        "greedy shrink should isolate the one triggering event"
    );
    assert_eq!(report.script.n_requests, 2, "workload trimmed to the fault");

    // The minimal script round-trips through a replayable file: still fails
    // under the bug, clean without it.
    let path = tmp_dir("shrunk").join("min.rrqs");
    report.script.write_to(&path).unwrap();
    let (decoded, replayed) = explorer::replay_file(&path, &buggy).unwrap();
    assert_eq!(decoded, report.script);
    assert!(replayed.failed(), "replay must reproduce the bug");
    let (_, fixed) = explorer::replay_file(&path, &ExplorerConfig::default()).unwrap();
    assert_eq!(fixed.violations, Vec::<String>::new());
}

#[test]
fn failing_sweep_persists_a_replayable_script_file() {
    // Find a generated script that trips the injected bug (a client crash
    // right after a receive), then sweep exactly that seed.
    let seed = (0..5000)
        .find(|s| {
            FaultScript::generate(*s).events.iter().any(|e| {
                matches!(
                    e,
                    FaultEvent::ClientCrash {
                        point: CrashPoint::AfterReceive,
                        ..
                    }
                )
            })
        })
        .expect("no seed with an after-receive crash in range");
    let cfg = ExplorerConfig {
        bug: Some(InjectedBug::SkipRereceive),
        out_dir: Some(tmp_dir("sweep-fail")),
        ..ExplorerConfig::default()
    };
    let report = run_sweep(seed, 1, &cfg);
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    let path = failure.script_path.as_ref().expect("script persisted");
    // A sweep picks the partition count per seed and reports it with the
    // failure; the replay is told.
    assert_eq!(failure.repo_partitions, explorer::sweep_partitions(seed));
    let cfg = ExplorerConfig {
        repo_partitions: Some(failure.repo_partitions),
        ..cfg
    };
    let (script, outcome) = explorer::replay_file(path, &cfg).unwrap();
    assert_eq!(script, failure.script);
    assert!(outcome.failed());
    assert_eq!(outcome.digest, failure.outcome.digest, "replay is exact");
    let evidence = std::fs::read_to_string(path.with_extension("violations.txt")).unwrap();
    let expected = [&failure.outcome.violations[..], &failure.outcome.trace[..]].concat();
    assert_eq!(evidence, expected.join("\n"), "violations, then the trace");
}

#[test]
fn checked_in_minimal_script_reproduces_the_seeded_bug() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/min-skip-rereceive.rrqs");
    let buggy = ExplorerConfig {
        bug: Some(InjectedBug::SkipRereceive),
        ..ExplorerConfig::default()
    };
    let (script, outcome) = explorer::replay_file(&path, &buggy).unwrap();
    assert_eq!(script.events.len(), 1);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.contains("c1/2") && v.contains("never processed")),
        "expected the skipped reply to surface: {:?}",
        outcome.violations
    );
    let (_, fixed) = explorer::replay_file(&path, &ExplorerConfig::default()).unwrap();
    assert_eq!(
        fixed.violations,
        Vec::<String>::new(),
        "correct resync handles the same script"
    );
}

#[test]
fn double_count_bug_is_caught_by_metrics_oracle_and_shrinks() {
    // The bug doubles a counter, nothing else: every client-visible oracle
    // stays silent, and only metrics conservation (law A) can catch it.
    let buggy = ExplorerConfig {
        bug: Some(InjectedBug::DoubleCountEnqueue),
        ..ExplorerConfig::default()
    };
    let script = FaultScript {
        seed: 7,
        n_requests: 3,
        events: vec![FaultEvent::Partition {
            serial: 2,
            direction: PartitionDirection::Both,
            ops: 1,
        }],
    };
    let outcome = run_script(&script, &buggy);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.contains("metrics law A")),
        "double-count not caught: {:?}",
        outcome.violations
    );
    assert!(
        outcome.violations.iter().all(|v| v.contains("metrics law")),
        "only the metrics oracle should fire: {:?}",
        outcome.violations
    );

    // Any single request trips it, so the shrinker should strip the (noise)
    // partition and trim the workload to one request.
    let report = shrink(&script, &buggy);
    assert!(report.input_failed);
    assert_eq!(report.script.events, Vec::new(), "partition was pure noise");
    assert_eq!(report.script.n_requests, 1);

    // Determinism: the law-A counts in the violation text replay exactly.
    let again = run_script(&script, &buggy);
    assert_eq!(outcome.digest, again.digest);
    assert_eq!(outcome.violations, again.violations);
}

/// Three server crashes (one clean, two with torn WAL tails) while the
/// server's dequeuers hold claimed elements. Claim marks are volatile:
/// recovery rebuilds the index unclaimed, and the whole oracle battery
/// (exactly-once effects, reply matching, money conservation, metrics
/// conservation) must stay green.
#[test]
fn checked_in_crash_mid_dequeue_script_stays_green() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/crash-mid-dequeue.rrqs");
    let (script, outcome) = explorer::replay_file(&path, &ExplorerConfig::default()).unwrap();
    assert_eq!(script.events.len(), 3, "script should carry three crashes");
    assert_eq!(
        outcome.violations,
        Vec::<String>::new(),
        "trace:\n{:#?}",
        outcome.trace
    );
}

#[test]
fn checked_in_minimal_double_count_script_reproduces_the_bug() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/min-double-count.rrqs");
    let buggy = ExplorerConfig {
        bug: Some(InjectedBug::DoubleCountEnqueue),
        ..ExplorerConfig::default()
    };
    let (script, outcome) = explorer::replay_file(&path, &buggy).unwrap();
    assert_eq!(script.events.len(), 0);
    assert_eq!(script.n_requests, 1);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.contains("metrics law A")),
        "expected a law-A conservation violation: {:?}",
        outcome.violations
    );
    let (_, fixed) = explorer::replay_file(&path, &ExplorerConfig::default()).unwrap();
    assert_eq!(
        fixed.violations,
        Vec::<String>::new(),
        "without the bug the same script satisfies every law"
    );
}

/// A non-testable device: it cannot answer "did I process this already?",
/// so resynchronization after an after-process crash must re-process —
/// at-least-once, surfacing in [`ReplyMatcher::duplicated`].
struct NaiveProcessor {
    matcher: Arc<ReplyMatcher>,
}

impl ReplyProcessor for NaiveProcessor {
    fn checkpoint(&mut self) -> Vec<u8> {
        Vec::new()
    }
    fn process(&mut self, rid: &Rid, reply: &Reply) {
        self.matcher.record(rid, reply);
    }
    fn already_processed(&mut self, _rid: &Rid, _ckpt: Option<&[u8]>) -> bool {
        false
    }
}

#[test]
fn duplicated_reply_processing_is_reported_for_non_testable_devices() {
    let repo = Arc::new(Repository::create("dup-matcher").unwrap());
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults("reply.cdup").unwrap();
    let handler: Handler = Arc::new(|_ctx, req| Ok(HandlerOutcome::Reply(req.body.clone())));
    let server = Server::new(
        Arc::clone(&repo),
        ServerConfig::new("s-dup", "req"),
        handler,
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = server.spawn(Arc::clone(&stop));

    let matcher = Arc::new(ReplyMatcher::new());
    let mut processor = NaiveProcessor {
        matcher: Arc::clone(&matcher),
    };
    let make_clerk = {
        let repo = Arc::clone(&repo);
        move || {
            let mut cfg = ClerkConfig::new("cdup", "req");
            cfg.receive_block = Duration::from_secs(10);
            Clerk::new(Arc::new(LocalQm::new(Arc::clone(&repo))), cfg)
        }
    };
    let driver = ClientCrashDriver::new(make_clerk, "echo");
    let schedule = CrashSchedule::single(2, CrashPoint::AfterProcess);
    let report = driver
        .run(3, |s| schedule.get(s), |s| vec![s as u8], &mut processor)
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();

    assert_eq!(report.incarnations, 2);
    assert_eq!(report.resync_reprocessed, 1, "rereceive path taken");
    // The crash-then-rereceive resubmission processed serial 2's reply twice
    // — exactly what `duplicated` exists to report.
    assert_eq!(
        matcher.duplicated(),
        vec![(Rid::new("cdup", 2), 2)],
        "at-least-once overshoot must be visible"
    );
    assert!(matcher.mismatches().is_empty());
    assert!(matcher
        .missing(&(1..=3).map(|s| Rid::new("cdup", s)).collect::<Vec<_>>())
        .is_empty());
}
