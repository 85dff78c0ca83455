//! A dependency-free, multi-pass static analyzer over the whole workspace,
//! run by `rrq-lint` after its line rules.
//!
//! Where `lint.rs` checks single lines and fixed windows, this module builds
//! a per-function fact base (lock acquisitions by declared class, calls,
//! blocking operations, sync points, commit-record appends, commit-point
//! mutations — see [`scan`]), reads the lock-class catalogue from the
//! checked-in `LOCKS.md` ([`catalogue`]), and runs four rule families over
//! the propagated call graph ([`rules`]):
//!
//! 1. `lock-order` — cross-crate lock-acquisition order vs the declared
//!    partial order, including acquisitions reached through calls.
//! 2. `no-block-under-guard` — blocking ops while a `no-block` guard is live.
//! 3. `durability-dominator` — commit-point mutations dominated by a WAL
//!    commit append + sync; appends post-dominated by a sync.
//! 4. `relaxed-ordering` — `Ordering::Relaxed` confined to `crates/obs`.
//!
//! Findings carry the witnessing acquisition chain and are filtered through
//! per-rule allowlists in `crates/check/lints/<rule>.allow`. Soundness
//! caveats (what the brace-level scan can and cannot see) are catalogued in
//! DESIGN.md §22.

pub mod catalogue;
pub mod rules;
pub mod scan;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::lint;

pub use rules::{RULE_DURABILITY, RULE_LOCK_ORDER, RULE_NO_BLOCK, RULE_RELAXED};

/// Every rule family, in reporting order.
pub const RULES: &[&str] = &[
    RULE_LOCK_ORDER,
    RULE_NO_BLOCK,
    RULE_DURABILITY,
    RULE_RELAXED,
];

/// One analyzer finding, with its witness chain.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule family fired.
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// The witnessing chain (held-guard acquisition sites, call path).
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        for link in &self.chain {
            write!(f, "\n    via {link}")?;
        }
        Ok(())
    }
}

/// Result of an analyzer pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings that survived the allowlists.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by allowlist entries.
    pub suppressed: usize,
}

/// Run every rule family over `<root>/crates/*/src` against
/// `<root>/LOCKS.md`.
pub fn run(root: &Path) -> io::Result<Outcome> {
    run_rules(root, RULES)
}

/// Run a subset of the rule families over `<root>/crates/*/src`.
pub fn run_rules(root: &Path, rules_wanted: &[&str]) -> io::Result<Outcome> {
    run_rules_on(root, &lint::workspace_files(root)?, rules_wanted)
}

/// [`run_rules`] over `files`, a list the caller has already walked.
pub(crate) fn run_rules_on(
    root: &Path,
    files: &[PathBuf],
    rules_wanted: &[&str],
) -> io::Result<Outcome> {
    let cat = catalogue::load(root)?;
    let mut facts = Vec::with_capacity(files.len());
    for file in files {
        let rel = lint::relative_slash(root, file);
        facts.push(scan::scan_file(file, &rel, &cat)?);
    }

    let raw = rules::apply(&cat, &facts, rules_wanted);

    let mut out = Outcome {
        files_scanned: facts.len(),
        ..Outcome::default()
    };
    for finding in raw {
        let allow = lint::load_allowlist(root, finding.rule);
        if allow.iter().any(|(suffix, frag)| {
            finding.file.ends_with(suffix.as_str()) && lint::frag_matches(frag, &finding.message)
        }) {
            out.suppressed += 1;
        } else {
            out.findings.push(finding);
        }
    }
    Ok(out)
}
