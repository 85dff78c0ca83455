//! Runs every workload at smoke size through the `perf` binary and checks
//! what it prints against `BENCHMARK.json`.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "inline_bank",
    "inline_echo_4k",
    "pool_drain",
    "crash_recover",
];

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repository")
}

/// The result line of `perf run <workload> --smoke --trace <trace>`.
fn smoke(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", workload, "--smoke", "--trace", trace, "--seed", "3"])
        .output()
        .expect("start perf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} trace {trace}:\n{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

/// Metric names of a result line: whatever is followed by `: {"value"`.
fn metric_names(line: &str) -> Vec<&str> {
    line.split("\": {\"value\"")
        .filter_map(|before| before.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .collect()
}

/// Names listed under `section` of the manifest.
fn manifest_names(manifest: &str, section: &str) -> Vec<String> {
    let body = manifest
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .expect("section")
        .split(']')
        .next()
        .expect("end of section");
    body.split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("name").to_string())
        .collect()
}

fn check(line: &str, section: &str, manifest: &str) {
    assert!(line.contains("\"correct\": true"), "{line}");
    assert!(line.contains("\"failed\": 0"), "{line}");
    let expected = manifest_names(manifest, section);
    let mut names = metric_names(line);
    for name in &names {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} has a character outside letters, digits, _ . -"
        );
        assert!(
            expected.iter().any(|e| e == name),
            "{name} is not under {section} in BENCHMARK.json"
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        expected.len(),
        "a run prints every {section} metric once"
    );
}

#[test]
fn manifest_is_generated_from_the_spec() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("manifest")
        .output()
        .expect("start perf");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        manifest(),
        "BENCHMARK.json differs from `perf manifest`"
    );
    let listed = manifest_names(&manifest(), "workloads");
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn every_smoke_workload_is_correct_and_prints_the_end_to_end_metrics() {
    let manifest = manifest();
    for w in WORKLOADS {
        check(&smoke(w, "0"), "end_to_end", &manifest);
    }
}

/// The probes behind the per-layer rows are the same for every workload, so
/// one traced run covers them.
#[test]
fn a_traced_smoke_run_prints_the_per_layer_metrics() {
    check(&smoke("pool_drain", "1"), "per_layer", &manifest());
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "no_such_workload"])
        .output()
        .expect("start perf");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
