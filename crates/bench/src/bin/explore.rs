//! The fault-schedule explorer sweep runner.
//!
//! ```sh
//! cargo run --release -p rrq-bench --bin explore                      # 1000 scripts
//! cargo run --release -p rrq-bench --bin explore -- --scripts 200 \
//!     --seed 1 --budget-secs 240 --out target/explorer-failures
//! cargo run --release -p rrq-bench --bin explore -- --replay path.rrqs
//! cargo run --release -p rrq-bench --bin explore -- --scripts 50 --bug
//! cargo run --release -p rrq-bench --bin explore -- --replay path.rrqs --repo-partitions 4
//! cargo run --release -p rrq-bench --bin explore -- --scripts 800 --expect-digest 64d66893abe8f098
//! ```
//!
//! Runs seeded [`rrq_sim::script::FaultScript`]s through the explorer,
//! every fourth seed on a four-partition repository and the rest on one
//! ([`rrq_sim::explorer::sweep_partitions`]), prints progress and the sweep
//! digest, re-verifies the first few seeds for digest stability, and exits
//! non-zero if any oracle fired (printing the failing seed, the partition
//! count it ran on and the persisted script path; the violations and trace
//! are written beside the script as `fail-seed-<n>.violations.txt`).
//! `--repo-partitions N` runs everything on N partitions: give a replay the
//! count its failure was printed with.
//! `--expect-digest <hex>` pins the sweep: the run fails when its digest
//! differs, or when the wall-time budget stopped it before every script ran.
//! `--bug [skip-rereceive]` injects the deliberate skip-rereceive client
//! bug, `--bug double-count` the metrics double-count bug; both *expect*
//! failures — proving the oracle battery bites — then shrink the first
//! failure.

use rrq_sim::explorer::{self, ExplorerConfig, InjectedBug};
use rrq_sim::shrink;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    scripts: u64,
    seed: u64,
    budget_secs: u64,
    out: PathBuf,
    replay: Option<PathBuf>,
    bug: Option<InjectedBug>,
    repo_partitions: Option<usize>,
    expect_digest: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scripts: 1000,
        seed: 1,
        budget_secs: 600,
        out: PathBuf::from("target/explorer-failures"),
        replay: None,
        bug: None,
        repo_partitions: None,
        expect_digest: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scripts" => args.scripts = val("--scripts")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--budget-secs" => {
                args.budget_secs = val("--budget-secs")?.parse().map_err(|e| format!("{e}"))?
            }
            "--out" => args.out = PathBuf::from(val("--out")?),
            "--repo-partitions" => {
                args.repo_partitions = Some(
                    val("--repo-partitions")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--expect-digest" => {
                let hex = val("--expect-digest")?;
                args.expect_digest =
                    Some(u64::from_str_radix(&hex, 16).map_err(|e| format!("{hex}: {e}"))?)
            }
            "--replay" => args.replay = Some(PathBuf::from(val("--replay")?)),
            "--bug" => {
                // Optional bug name; a bare `--bug` keeps its original
                // meaning (the skip-rereceive client bug).
                args.bug = Some(match it.peek().map(String::as_str) {
                    Some("skip-rereceive") => {
                        it.next();
                        InjectedBug::SkipRereceive
                    }
                    Some("double-count") => {
                        it.next();
                        InjectedBug::DoubleCountEnqueue
                    }
                    Some(other) if !other.starts_with("--") => {
                        return Err(format!("unknown bug {other}"))
                    }
                    _ => InjectedBug::SkipRereceive,
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explore: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ExplorerConfig {
        bug: args.bug,
        out_dir: Some(args.out.clone()),
        repo_partitions: args.repo_partitions,
        ..ExplorerConfig::default()
    };

    if let Some(path) = &args.replay {
        let (script, outcome) = match explorer::replay_file(path, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("explore: replay failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "replayed {path:?} (seed {}, {} events)",
            script.seed,
            script.events.len()
        );
        println!("digest {:016x}", outcome.digest);
        for line in &outcome.trace {
            println!("  {line}");
        }
        return if outcome.failed() {
            eprintln!("replay: {} violation(s)", outcome.violations.len());
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let start = Instant::now();
    println!(
        "exploring {} scripts from seed {} (budget {}s, failures -> {:?})",
        args.scripts, args.seed, args.budget_secs, args.out
    );

    // One conformance session per chunk keeps progress printing cheap while
    // still resetting the checker between scripts (run_sweep does that).
    let mut failures = Vec::new();
    let mut digests = Vec::new();
    let mut run_count = 0u64;
    let chunk = 100u64;
    let mut next_seed = args.seed;
    let end_seed = args.seed.saturating_add(args.scripts);
    while next_seed < end_seed {
        let n = chunk.min(end_seed - next_seed);
        let report = explorer::run_sweep(next_seed, n, &cfg);
        run_count += report.scripts_run;
        digests.push(report.digest_of_digests);
        for f in &report.failures {
            eprintln!(
                "FAIL seed {} on {} repo partition(s) ({} violations) script -> {:?}",
                f.seed,
                f.repo_partitions,
                f.outcome.violations.len(),
                f.script_path
            );
            for v in &f.outcome.violations {
                eprintln!("  {v}");
            }
        }
        failures.extend(report.failures);
        println!(
            "  {run_count}/{} scripts, {} failures, {:.1}s elapsed",
            args.scripts,
            failures.len(),
            start.elapsed().as_secs_f64()
        );
        next_seed += n;
        if start.elapsed().as_secs() > args.budget_secs {
            eprintln!("explore: wall-time budget exhausted after {run_count} scripts");
            break;
        }
    }

    // Digest stability: re-run the first seeds (one of each four is a
    // four-partition run) twice and compare.
    let verify_n = 4.min(run_count);
    if verify_n > 0 {
        let first = explorer::run_sweep(args.seed, verify_n, &cfg).digest_of_digests;
        let again = explorer::run_sweep(args.seed, verify_n, &cfg).digest_of_digests;
        if first != again {
            eprintln!("explore: NONDETERMINISM: re-run digests differ: {first:x} vs {again:x}");
            return ExitCode::FAILURE;
        }
        println!(
            "determinism check: first {verify_n} seeds re-ran identically (chunk digest {first:016x})"
        );
    }

    let mut sweep_digest = 0xcbf2_9ce4_8422_2325u64;
    for d in &digests {
        for &b in &d.to_le_bytes() {
            sweep_digest ^= u64::from(b);
            sweep_digest = sweep_digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!(
        "swept {run_count} scripts in {:.1}s; sweep digest {sweep_digest:016x}; {} failures",
        start.elapsed().as_secs_f64(),
        failures.len()
    );

    if let Some(want) = args.expect_digest {
        if run_count < args.scripts {
            eprintln!(
                "explore: only {run_count} of {} scripts ran; the digest cannot be checked",
                args.scripts
            );
            return ExitCode::FAILURE;
        }
        if sweep_digest != want {
            eprintln!("explore: sweep digest {sweep_digest:016x}, expected {want:016x}");
            return ExitCode::FAILURE;
        }
    }

    if args.bug.is_some() {
        // The injected bug must be caught, and the first failure must shrink
        // to a tiny replayable script.
        if failures.is_empty() {
            eprintln!("explore: --bug produced no failures; the oracles are asleep");
            return ExitCode::FAILURE;
        }
        let first = &failures[0];
        let cfg = ExplorerConfig {
            repo_partitions: Some(first.repo_partitions),
            ..cfg
        };
        let report = shrink::shrink(&first.script, &cfg);
        let path = args.out.join(format!("shrunk-seed-{}.rrqs", first.seed));
        if let Err(e) = report.script.write_to(&path) {
            eprintln!("explore: could not persist shrunk script: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "shrunk seed {} from {} to {} event(s) in {} runs -> {:?}",
            first.seed,
            first.script.events.len(),
            report.script.events.len(),
            report.attempts,
            path
        );
        return ExitCode::SUCCESS;
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "explore: {} failing script(s); replay with --replay <path>",
            failures.len()
        );
        ExitCode::FAILURE
    }
}
