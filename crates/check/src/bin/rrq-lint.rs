//! Workspace static check: `cargo run -p rrq-check --bin rrq-lint [root]`.
//!
//! Walks `crates/*/src` under the workspace root (defaulting to the root
//! that contains this crate) once, runs the line rules of `rrq_check::lint`
//! and then the four `rrq_check::analyze` rule families (driven by
//! `<root>/LOCKS.md`) over that list, and exits non-zero on any finding
//! that is not covered by an allowlist entry under `crates/check/lints/`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match std::env::args_os().nth(1) {
        Some(arg) => PathBuf::from(arg),
        // crates/check/../.. == the workspace root, wherever cargo runs us.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let (outcome, analyzed) = match rrq_check::lint::run_with_analyzer(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rrq-lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for finding in &outcome.findings {
        println!("{finding}");
    }
    // A root without a readable LOCKS.md fails closed, but only after the
    // line findings above have been reported.
    let analyzed = match analyzed {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rrq-lint: cannot run the analyzer rules: {e}");
            return ExitCode::FAILURE;
        }
    };
    for finding in &analyzed.findings {
        println!("{finding}");
    }
    let total = outcome.findings.len() + analyzed.findings.len();
    let suppressed = outcome.suppressed + analyzed.suppressed;
    if total == 0 {
        println!(
            "rrq-lint: clean ({} files scanned, {} finding(s) allowlisted)",
            outcome.files_scanned, suppressed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rrq-lint: {} finding(s) in {} files ({} allowlisted)",
            total, outcome.files_scanned, suppressed
        );
        ExitCode::FAILURE
    }
}
