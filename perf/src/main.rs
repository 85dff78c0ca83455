//! `perf` — the repository's benchmark. One invocation runs one workload in
//! its own process, checks its outputs, and prints every metric by name with
//! its unit; the last line of standard output is the driver's JSON result.
//! See `perf/README.md`.

mod layers;
mod report;
mod spec;
mod workloads;

use report::{Env, Report};
use spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Scale, Span, Tally, ACCOUNTS};

const USAGE: &str = "usage:
  perf [run <workload>] [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--smoke]
       [--spans <file>]
  perf selfcheck [--seconds <s>]
  perf manifest
workloads: inline_bank inline_echo_4k pool_drain crash_recover";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Where a traced run writes its spans, one JSON object a line.
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => out.workload = Some(value("a name")?.clone()),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is not 0 or 1")),
                }
            }
            "--smoke" => out.smoke = true,
            "--spans" => out.spans = Some(value("a file")?.clone()),
            name if out.workload.is_none() && !name.starts_with('-') => {
                out.workload = Some(name.to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds >= 0.0 && out.seconds <= 120.0) {
        return Err(format!("--seconds {} is outside 0..=120", out.seconds));
    }
    Ok(out)
}

/// Kind and sizes of a workload. `--smoke` is one measured round of 2 000
/// requests (two rounds for `crash_recover`).
fn sizes(workload: &str, smoke: bool) -> (Kind, Scale) {
    let (kind, requests) = match workload {
        "inline_echo_4k" => (Kind::Echo(4096), 5_000),
        "crash_recover" => (Kind::Bank, 120_000),
        _ => (Kind::Bank, 20_000),
    };
    let scale = if smoke {
        Scale {
            requests: 2_000,
            min_rounds: if workload == "crash_recover" { 2 } else { 1 },
        }
    } else {
        Scale {
            requests,
            min_rounds: 3,
        }
    };
    (kind, scale)
}

/// The spans of a traced run, written once the run has ended: name, parent,
/// request serial, and start and end in nanoseconds since the first span.
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let epoch = spans.iter().map(|s| s.start).min();
    for s in spans {
        let since = |t: Instant| epoch.map_or(0, |e| (t - e).as_nanos());
        writeln!(
            file,
            "{{\"name\": \"{}\", \"parent\": \"{}\", \"rid\": \"{}/{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.name,
            s.parent,
            workloads::CLIENT,
            s.rid_serial,
            since(s.start),
            since(s.end)
        )?;
    }
    file.flush()
}

fn run(args: &Args, started: Instant) -> Result<Report, String> {
    let workload = args.workload.as_deref().ok_or("no workload named")?;
    let name = WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|name| *name == workload)
        .ok_or(format!("unknown workload {workload}"))?;
    let (kind, scale) = sizes(name, args.smoke);
    // A traced run gives a third of its time to the workload, whose counters
    // and recoveries give the counter rows; the fixed probes take the rest.
    let seconds = match (args.smoke, args.trace) {
        (true, _) => 0.0,
        (false, true) => args.seconds / 3.0,
        (false, false) => args.seconds,
    };
    let mut data = match name {
        "pool_drain" => workloads::pool_drain(scale, args.seed, seconds, args.trace, started),
        "crash_recover" => workloads::crash_recover(scale, args.seed, seconds, started),
        _ => workloads::inline(kind, scale, args.seed, seconds, args.trace, started),
    };
    let metrics = if args.trace {
        let mut probes = Tally::default();
        let (metrics, spans) = layers::per_layer(&data, args.seed, args.smoke, &mut probes);
        data.tally.attempted += probes.attempted;
        data.tally.failed += probes.failed;
        data.tally.failures.extend(probes.failures);
        if let Some(path) = &args.spans {
            write_spans(path, &spans).map_err(|e| format!("--spans {path}: {e}"))?;
        }
        metrics
    } else {
        data.end_to_end()
    };
    Ok(Report {
        workload: name,
        trace: args.trace,
        env: Env {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: env!("PERF_RUSTC_VERSION"),
            commit: report::git_commit(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            rounds: data.recoveries.len(),
            requests_per_round: data.requests_per_round,
            accounts: if data.kind == Kind::Bank { ACCOUNTS } else { 0 },
            body_bytes: data.kind.body_bytes(),
        },
        attempted: data.tally.attempted,
        failed: data.tally.failed,
        failures: data.tally.failures,
        wall_s: started.elapsed().as_secs_f64(),
        warmup_s: data.warmup_s,
        metrics,
    })
}

/// The value of metric `name` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// One workload in a process of its own; its result line.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if out.status.success() && line.contains("\"correct\": true") {
        Ok(line)
    } else {
        Err(format!("{workload} failed:\n{stdout}"))
    }
}

/// Every workload twice, the second pass in reverse order, each run in its
/// own process; fails naming each end-to-end metric whose two values differ
/// by more than its bound.
fn selfcheck(args: &Args) -> Result<(), String> {
    let mut first = Vec::new();
    for w in &WORKLOADS {
        eprintln!("selfcheck: pass 1 {}", w.name);
        first.push(run_child(w.name, args.seed, args.seconds)?);
    }
    let mut offenders = Vec::new();
    for (w, before) in WORKLOADS.iter().zip(&first).rev() {
        eprintln!("selfcheck: pass 2 {}", w.name);
        let after = run_child(w.name, args.seed, args.seconds)?;
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (metric_in(before, m.name), metric_in(&after, m.name)) else {
                return Err(format!("{}: no {} in a result line", w.name, m.name));
            };
            let diff = (a - b).abs() / a;
            let verdict = if diff > m.bound { "DIFFERS" } else { "ok" };
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>7.2}% (bound {:.1}%) {verdict}",
                w.name,
                m.name,
                a,
                b,
                diff * 100.0,
                m.bound * 100.0
            );
            if diff > m.bound {
                offenders.push(format!("{}/{}", w.name, m.name));
            }
        }
    }
    if offenders.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two passes differ by more than the bound on: {}",
            offenders.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("manifest") => ("manifest", &argv[1..]),
        Some("selfcheck") => ("selfcheck", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    if command == "manifest" {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if command == "selfcheck" {
        return match selfcheck(&args) {
            Ok(()) => {
                println!("selfcheck: every end-to-end metric agrees within its bound");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf selfcheck: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, started) {
        Ok(report) => {
            report.print();
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
