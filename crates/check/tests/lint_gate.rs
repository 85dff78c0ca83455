//! The workspace lint gate: `cargo test -p rrq-check` fails if any source
//! lint fires anywhere in `crates/*/src`. Future PRs inherit the checks by
//! keeping this test green (or by adding a justified allowlist entry under
//! `crates/check/lints/`). The `global-state` fixture pins the
//! `no-global-state` rule's exact output.

use rrq_check::lint;
use std::path::{Path, PathBuf};

#[test]
fn workspace_sources_pass_all_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = lint::run(&root).expect("lint walk succeeds");
    assert!(
        outcome.files_scanned > 20,
        "the walk must cover the workspace (saw {} files)",
        outcome.files_scanned
    );
    assert!(
        outcome.findings.is_empty(),
        "lint violations:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn global_state_fixture_reports_every_global_and_nothing_else() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/global-state");
    let outcome = lint::run(&root).expect("lint walk succeeds");
    let rendered: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    let lib = "crates/app/src/lib.rs";
    assert_eq!(
        rendered,
        vec![
            format!("{lib}:7: [no-global-state] static ENABLED: AtomicBool = AtomicBool::new(false);"),
            format!("{lib}:8: [no-global-state] pub static TICKS: AtomicU64 = AtomicU64::new(0);"),
            format!("{lib}:9: [no-global-state] pub(crate) static SESSION: Mutex<()> = Mutex::new(());"),
            format!("{lib}:10: [no-global-state] static REGISTRY: RwLock<Vec<u64>> = RwLock::new(Vec::new());"),
            format!("{lib}:11: [no-global-state] static DETECTOR: OnceLock<String> = OnceLock::new();"),
            format!("{lib}:12: [no-global-state] static mut COUNT: u64 = 0;"),
            format!("{lib}:14: [no-global-state] thread_local! {{"),
        ]
    );
    assert_eq!(outcome.files_scanned, 1);
    assert_eq!(outcome.suppressed, 0);
}
