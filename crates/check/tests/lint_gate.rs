//! The workspace lint gate: `cargo test -p rrq-check` fails if any source
//! lint fires anywhere in `crates/*/src`. Future PRs inherit the checks by
//! keeping this test green (or by adding a justified allowlist entry under
//! `crates/check/lints/`). The `global-state`, `unsafe`,
//! `metric-catalogue` and `doc-names` fixtures pin those rules' exact
//! output.

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

#[test]
fn unsafe_fixture_reports_block_fn_and_impl_and_no_text() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unsafe");
    let outcome = lint::run(&root).expect("lint walk succeeds");
    let rendered: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    let lib = "crates/app/src/lib.rs";
    assert_eq!(
        rendered,
        vec![
            format!("{lib}:7: [no-unsafe] unsafe {{ *r.0 }}"),
            format!("{lib}:10: [no-unsafe] pub unsafe fn second(r: &Raw) -> u8 {{"),
            format!("{lib}:14: [no-unsafe] unsafe impl Send for Raw {{}}"),
        ]
    );
    assert_eq!(outcome.files_scanned, 1);
    assert_eq!(outcome.suppressed, 0);
}

#[test]
fn metric_catalogue_fixture_checks_both_directions() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/metric-catalogue");
    let outcome = lint::run(&root).expect("lint walk succeeds");
    let rendered: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    let md = "crates/obs/METRICS.md";
    let unemitted = "is declared in the catalogue but no non-test call site emits it";
    assert_eq!(
        rendered,
        vec![
            format!(
                "crates/app/src/lib.rs:13: [metric-catalogue] `app.typo` is not declared in {md}: obs.counter_inc(\"app.typo\");"
            ),
            format!("{md}:6: [metric-catalogue] `app.test_only` {unemitted}"),
            format!("{md}:7: [metric-catalogue] `app.retired` {unemitted}"),
        ]
    );
    assert_eq!(outcome.files_scanned, 1);
    assert_eq!(outcome.suppressed, 0);
}

#[test]
fn doc_names_fixture_reports_every_name_that_resolves_to_nothing() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/doc-names");
    let outcome = lint::run(&root).expect("lint walk succeeds");
    let rendered: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    let (lib, store) = ("crates/app/src/lib.rs", "crates/app/src/store.rs");
    let neither = "neither defines nor re-exports";
    assert_eq!(
        rendered,
        vec![
            "DESIGN.md:7: [doc-names] `crates/app/src/gone.rs:40` does not exist".to_string(),
            format!("DESIGN.md:8: [doc-names] `rrq_app::store::Vanished` names `Vanished`, which `{store}` {neither}"),
            "DESIGN.md:9: [doc-names] `rrq_nope::thing` names no crate `crates/nope`".to_string(),
            format!("README.md:3: [doc-names] `rrq_app::gone::Thing` names `Thing`, which `{lib}` {neither}"),
            format!("README.md:3: [doc-names] `rrq_app::{{store, ledger}}` names `ledger`, which `{lib}` {neither}"),
            "LOCKS.md:5: [doc-names] `crates/app/src/missing.rs` does not exist".to_string(),
        ]
    );
    assert_eq!(outcome.files_scanned, 2);
    assert_eq!(outcome.suppressed, 0);
}
