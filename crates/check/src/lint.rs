//! Source-level workspace lints (plain line scanning, no parsing).
//!
//! Six rules over every `.rs` file under `crates/*/src`, skipping
//! `#[cfg(test)]` items and `//` comment lines, and one over the documents
//! that describe them:
//!
//! * **no-unwrap-in-recovery** — `unwrap()`/`expect(` are banned in the
//!   crash-recovery path (`storage/src/recovery.rs` and the WAL replay in
//!   `storage/src/wal.rs`): recovery must degrade to typed errors, never
//!   panic on a torn log.
//! * **no-raw-spawn** — `thread::spawn` is banned outside
//!   `core/src/threads.rs`, so every worker thread goes through one place
//!   that names it and can later carry instrumentation.
//! * **no-wallclock-in-sim** — `Instant::now`/`SystemTime::now` are banned
//!   under `crates/sim/src` and `crates/obs/src`: simulation code must
//!   take time from its driver or deadlines passed in by the caller, and
//!   the metrics layer's clock is logical ticks by construction — a
//!   wall-clock read in either would silently break replay determinism.
//! * **metric-catalogue** — every metric name used at an `rrq_obs::Obs`
//!   handle call (`.counter_add(`/`.counter_inc(`/`.gauge_add(`/`.observe(`)
//!   must be declared exactly once in the table in `crates/obs/METRICS.md`,
//!   so a typo'd name fails CI instead of silently splitting a series; and
//!   every name the table declares must be used at such a call outside
//!   test code, so a row cannot outlive the series it describes.
//!   Names are read as the first string literal after the call's opening
//!   paren (same line, or the next for wrapped calls); an identifier
//!   argument is resolved through a same-file `const NAME: &str = "…";`.
//!   `crates/obs/src` itself is out of scope — the crate defines the hooks,
//!   it doesn't own names.
//! * **no-global-state** — no `static` of an atomic, `Mutex`, `RwLock`,
//!   `OnceLock` or `Cell` type (nor a `static mut`) and no `thread_local!`:
//!   observers and every other piece of state belong to an instance and
//!   its handle, so two instances in one process never share anything.
//! * **no-unsafe** — the `unsafe` keyword (a block, fn, impl or trait)
//!   outside string literals and comments: each use must be a line the
//!   allowlist names with its reason, so a new one is a reviewed decision.
//! * **doc-names** — in `DESIGN.md`, `README.md` and `LOCKS.md`, outside
//!   fenced blocks, every backticked `crates/…` path must exist (a `:line`
//!   suffix stripped first), and every backticked `rrq_<crate>::…` path
//!   must walk module files from the crate's `lib.rs` and end in a module
//!   or in an item the last module file defines or re-exports, so a
//!   document cannot go on naming what a change deleted or moved.
//!
//! Two former rules were retired in favour of [`crate::analyze`], which
//! reasons about whole functions and the cross-crate call graph instead
//! of a fixed lookahead window: **commit-sync** (a commit-point append
//! must be followed by a sync within a few lines) is superseded by the
//! analyzer's `durability-dominator` rule, and **shard-lock-order** (no
//! second stripe guard while one is held, single scope only) by its
//! `lock-order` rule driven by the declared partial order in `LOCKS.md`.
//! The `rrq-lint` binary runs both halves, these seven rules and the
//! analyzer's four, over one walk of the workspace ([`run_with_analyzer`]).
//!
//! Each lint has an allowlist file at `crates/check/lints/<lint>.allow`
//! (one `path-suffix [:: line-fragment]` per line, `#` comments) for the
//! few justified exceptions; every entry should say why.

use crate::analyze::{
    self,
    scan::{strip, word_in},
};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// Built with concat! so this file does not match its own patterns.
const PAT_UNWRAP: &str = concat!(".unwr", "ap()");
const PAT_EXPECT: &str = concat!(".exp", "ect(");
const PAT_SPAWN: &str = concat!("thread::", "spawn(");
const PAT_INSTANT: &str = concat!("Instant::", "now");
const PAT_SYSTIME: &str = concat!("SystemTime::", "now");
const PAT_TLS: &str = concat!("thread_", "local!");
const PAT_UNSAFE: &str = concat!("un", "safe");

/// The interior-mutable types a `static` must not have.
const GLOBAL_STATE_TYPES: &[&str] = &["Atomic", "Mutex", "RwLock", "OnceLock", "Cell"];

/// The `rrq_obs::Obs` recording methods whose first argument is a metric
/// name.
const OBS_CALL_PATS: &[&str] = &[
    concat!(".counter_", "add("),
    concat!(".counter_", "inc("),
    concat!(".gauge_", "add("),
    concat!(".obs", "erve("),
];

/// Path (relative to the workspace root) of the metric-name catalogue.
const CATALOGUE_REL: &str = "crates/obs/METRICS.md";

/// The documents whose backticked names the `doc-names` rule checks.
const NAMED_DOCS: &[&str] = &["DESIGN.md", "README.md", "LOCKS.md"];

/// Keywords after which a module file defines the name that follows.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Every lint name, in reporting order.
pub const LINTS: &[&str] = &[
    "no-unwrap-in-recovery",
    "no-raw-spawn",
    "no-wallclock-in-sim",
    "metric-catalogue",
    "no-global-state",
    "no-unsafe",
    "doc-names",
];

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub lint: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.excerpt
        )
    }
}

/// Result of a full lint pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings that survived the allowlists.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by allowlist entries.
    pub suppressed: usize,
}

/// Run every lint over `<root>/crates/*/src`, applying the allowlists
/// under `<root>/crates/check/lints/`.
pub fn run(root: &Path) -> io::Result<Outcome> {
    run_files(root, &workspace_files(root)?)
}

/// The `rrq-lint` pass: walk `<root>/crates/*/src` once, then run these
/// line rules and every [`analyze`] rule over that one list. The analyzer's
/// result stands apart so that a root without a readable `LOCKS.md` still
/// reports its line findings before the analyzer fails closed.
pub fn run_with_analyzer(root: &Path) -> io::Result<(Outcome, io::Result<analyze::Outcome>)> {
    let files = workspace_files(root)?;
    let lint = run_files(root, &files)?;
    Ok((lint, analyze::run_rules_on(root, &files, analyze::RULES)))
}

/// Every `.rs` file under `<root>/crates/*/src`, sorted.
pub(crate) fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn run_files(root: &Path, files: &[PathBuf]) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut texts = Vec::with_capacity(files.len());
    for file in files {
        let text = fs::read_to_string(file)?;
        let rel = relative_slash(root, file);
        texts.push((rel, text));
    }
    let mut raw = Vec::new();
    for (rel, text) in &texts {
        lint_file(rel, text, &mut raw);
        out.files_scanned += 1;
    }
    lint_metric_catalogue(root, &texts, &mut raw);
    lint_doc_names(root, &mut raw);

    for finding in raw {
        let allow = load_allowlist(root, finding.lint);
        if allow.iter().any(|(suffix, frag)| {
            finding.file.ends_with(suffix.as_str()) && frag_matches(frag, &finding.excerpt)
        }) {
            out.suppressed += 1;
        } else {
            out.findings.push(finding);
        }
    }
    Ok(out)
}

pub(crate) fn frag_matches(frag: &Option<String>, excerpt: &str) -> bool {
    match frag {
        None => true,
        Some(f) => excerpt.contains(f.as_str()),
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

pub(crate) fn relative_slash(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Mark every line that belongs to a `#[cfg(test)]` item by tracking the
/// braces of the item that follows the attribute. Also covers compound
/// gates like `#[cfg(all(test, debug_assertions))]`.
pub(crate) fn test_flags(lines: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let head = lines[i].trim_start();
        if head.starts_with("#[cfg(test)]") || head.starts_with("#[cfg(all(test") {
            let mut depth: i64 = 0;
            let mut seen_open = false;
            let mut j = i;
            while j < lines.len() {
                flags[j] = true;
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            seen_open = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if seen_open && depth <= 0 {
                    break;
                }
                if !seen_open && lines[j].contains(';') {
                    break; // braceless item, e.g. `#[cfg(test)] use …;`
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

fn lint_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let in_test = test_flags(&lines);
    let scannable = |i: usize| -> bool { !in_test[i] && !lines[i].trim_start().starts_with("//") };
    let push = |out: &mut Vec<Finding>, lint: &'static str, i: usize| {
        out.push(Finding {
            lint,
            file: rel.to_string(),
            line: i + 1,
            excerpt: lines[i].trim().to_string(),
        });
    };

    let recovery_path =
        rel.ends_with("storage/src/recovery.rs") || rel.ends_with("storage/src/wal.rs");
    let spawn_exempt = rel.ends_with("core/src/threads.rs");
    let sim_path = rel.contains("crates/sim/src") || rel.contains("crates/obs/src");
    let mut in_tls = false;
    let mut in_string = false;

    for (i, &line) in lines.iter().enumerate() {
        // Every line goes through `strip`, so a string spanning lines is
        // tracked even where the line itself is not scanned.
        let code = strip(line, &mut in_string);
        if !scannable(i) {
            continue;
        }
        if word_in(&code, PAT_UNSAFE) {
            push(out, "no-unsafe", i);
        }
        // A `thread_local!` is one finding; the statics it declares are it.
        if line.contains(PAT_TLS) {
            push(out, "no-global-state", i);
            in_tls = !line.trim_end().ends_with(';');
        } else if in_tls {
            in_tls = line.trim() != "}";
        } else if global_static(line) {
            push(out, "no-global-state", i);
        }
        if recovery_path && (line.contains(PAT_UNWRAP) || line.contains(PAT_EXPECT)) {
            push(out, "no-unwrap-in-recovery", i);
        }
        if !spawn_exempt && line.contains(PAT_SPAWN) {
            push(out, "no-raw-spawn", i);
        }
        if sim_path && (line.contains(PAT_INSTANT) || line.contains(PAT_SYSTIME)) {
            push(out, "no-wallclock-in-sim", i);
        }
    }
}

/// A `static` (or `static mut`) declaration of process-global mutable state.
fn global_static(line: &str) -> bool {
    let decl = line.trim_start();
    let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
    let decl = decl.strip_prefix("pub ").unwrap_or(decl);
    let Some(rest) = decl.strip_prefix("static ") else {
        return false;
    };
    let ty = rest.split_once(':').map_or("", |(_, ty)| ty);
    let ty = ty.split('=').next().unwrap_or("");
    rest.starts_with("mut ") || GLOBAL_STATE_TYPES.iter().any(|t| ty.contains(t))
}

/// Cross-file pass for the `metric-catalogue` rule: collect every metric
/// name used at an `rrq_obs` call site, parse the names declared in the
/// catalogue table, and flag uses of undeclared names, names declared more
/// than once, and declared names that no call site uses.
fn lint_metric_catalogue(root: &Path, texts: &[(String, String)], out: &mut Vec<Finding>) {
    let catalogue = fs::read_to_string(root.join(CATALOGUE_REL)).unwrap_or_default();
    let finding = |file: &str, line: usize, excerpt: String| Finding {
        lint: "metric-catalogue",
        file: file.to_string(),
        line,
        excerpt,
    };
    // Each declared name with the line of its (first) row.
    let mut declared: Vec<(String, usize)> = Vec::new();
    for (i, line) in catalogue.lines().enumerate() {
        let Some(name) = catalogue_row_name(line) else {
            continue;
        };
        if declared.iter().any(|(d, _)| d == &name) {
            out.push(finding(
                CATALOGUE_REL,
                i + 1,
                format!("`{name}` is declared more than once in the catalogue"),
            ));
        } else {
            declared.push((name, i + 1));
        }
    }

    let mut used: Vec<String> = Vec::new();
    for (rel, text) in texts {
        // The obs crate defines the hooks; names in its docs and internals
        // are illustrative, not series the catalogue owns.
        if rel.contains("crates/obs/src") {
            continue;
        }
        for (line, name, excerpt) in metric_uses(text) {
            if !declared.iter().any(|(d, _)| d == &name) {
                out.push(finding(
                    rel,
                    line,
                    format!("`{name}` is not declared in {CATALOGUE_REL}: {excerpt}"),
                ));
            }
            used.push(name);
        }
    }
    for (name, line) in declared {
        if !used.contains(&name) {
            out.push(finding(
                CATALOGUE_REL,
                line,
                format!("`{name}` is declared in the catalogue but no non-test call site emits it"),
            ));
        }
    }
}

/// The backticked metric name from the first cell of a markdown table row,
/// if `line` is one (header and separator rows have no backticks).
fn catalogue_row_name(line: &str) -> Option<String> {
    let cell = line.trim_start().strip_prefix('|')?;
    let cell = cell.split('|').next()?;
    let rest = cell.split('`').nth(1)?;
    if rest.is_empty() {
        None
    } else {
        Some(rest.to_string())
    }
}

/// Metric names used at `rrq_obs::Obs` call sites in `text`, as
/// `(line, name, trimmed source line)` — one entry per use. The name is
/// the first string literal after the call's opening paren, read from the
/// same line or (for a wrapped call) the next; an identifier argument is
/// resolved through a same-file `const NAME: &str = "…";`. Names built any
/// other way are invisible to this lint — route them through a const.
fn metric_uses(text: &str) -> Vec<(usize, String, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let in_test = test_flags(&lines);
    let mut out = Vec::new();
    for i in 0..lines.len() {
        if in_test[i] || lines[i].trim_start().starts_with("//") {
            continue;
        }
        for pat in OBS_CALL_PATS {
            let mut from = 0;
            while let Some(pos) = lines[i][from..].find(pat) {
                from += pos + pat.len();
                let after = &lines[i][from..];
                let (line_no, name) = if let Some(name) = leading_str_literal(after) {
                    (i + 1, Some(name))
                } else if after.trim().is_empty() {
                    // Wrapped call: the name literal starts the next line.
                    (i + 2, lines.get(i + 1).and_then(|l| leading_str_literal(l)))
                } else {
                    (i + 1, resolve_const(&lines, after))
                };
                if let Some(name) = name {
                    out.push((line_no, name, lines[line_no - 1].trim().to_string()));
                }
            }
        }
    }
    out
}

/// The contents of a `"…"` literal at the start of `s` (leading whitespace
/// allowed), if one is there.
fn leading_str_literal(s: &str) -> Option<String> {
    let rest = s.trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Resolve an identifier argument through a same-file
/// `const NAME: &str = "…";` declaration.
fn resolve_const(lines: &[&str], after: &str) -> Option<String> {
    let ident: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        return None;
    }
    let needle = format!("const {ident}: &str = ");
    lines.iter().find_map(|l| {
        l.split(needle.as_str())
            .nth(1)
            .and_then(leading_str_literal)
    })
}

/// Cross-file pass for the `doc-names` rule over [`NAMED_DOCS`] (a
/// document the root lacks is skipped).
fn lint_doc_names(root: &Path, out: &mut Vec<Finding>) {
    for doc in NAMED_DOCS {
        let Ok(text) = fs::read_to_string(root.join(doc)) else {
            continue;
        };
        let mut fenced = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            // Odd pieces of a split on backticks are the inline code spans.
            for span in line.split('`').skip(1).step_by(2) {
                if let Some(why) = unresolved_name(root, span) {
                    out.push(Finding {
                        lint: "doc-names",
                        file: doc.to_string(),
                        line: i + 1,
                        excerpt: format!("`{span}` {why}"),
                    });
                }
            }
        }
    }
}

/// Why `span` names nothing in the tree at `root`, if it is a `crates/…`
/// path or an `rrq_<crate>::…` path that does not resolve. Patterns
/// (`crates/*/src`) and placeholders are not names.
fn unresolved_name(root: &Path, span: &str) -> Option<String> {
    if span.contains(['*', '<', '…']) {
        return None;
    }
    if span.starts_with("crates/") {
        let path = match span.split_once(':') {
            Some((path, line)) if line.chars().all(|c| c.is_ascii_digit() || c == '-') => path,
            _ => span,
        };
        return (!root.join(path).exists()).then(|| "does not exist".to_string());
    }
    let (krate, rest) = span.strip_prefix("rrq_")?.split_once("::")?;
    let mut dir = root.join("crates").join(krate).join("src");
    let mut file = dir.join("lib.rs");
    if !file.is_file() {
        return Some(format!("names no crate `crates/{krate}`"));
    }
    let mut segments: Vec<&str> = rest.split("::").collect();
    let last = segments.pop()?;
    for seg in segments {
        match module_file(&dir, seg) {
            Some(next) => {
                dir = dir.join(seg);
                file = next;
            }
            // A type or trait path: its last segment is defined in the file
            // of the deepest module.
            None => break,
        }
    }
    let text = fs::read_to_string(&file).unwrap_or_default();
    let names = last
        .trim_start_matches('{')
        .trim_end_matches(['}', '(', ')'])
        .split(',');
    let missing: Vec<&str> = names
        .map(str::trim)
        .filter(|name| module_file(&dir, name).is_none() && !defines(&text, name))
        .collect();
    (!missing.is_empty()).then(|| {
        format!(
            "names `{}`, which `{}` neither defines nor re-exports",
            missing.join(", "),
            relative_slash(root, &file)
        )
    })
}

/// The file of module `name` under `dir`, if it has one.
fn module_file(dir: &Path, name: &str) -> Option<PathBuf> {
    [
        dir.join(format!("{name}.rs")),
        dir.join(name).join("mod.rs"),
    ]
    .into_iter()
    .find(|f| f.is_file())
}

/// Does a module file's `text` define `name` (after an item keyword or as a
/// `macro_rules!`) or re-export it with a `pub use`?
fn defines(text: &str, name: &str) -> bool {
    let mut in_use = false;
    for line in text.lines() {
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '!'))
            .filter(|w| !w.is_empty())
            .collect();
        in_use |= words.starts_with(&["pub", "use"]) || words.starts_with(&["pub", "crate", "use"]);
        if in_use && words.contains(&name) {
            return true;
        }
        if in_use && line.contains(';') {
            in_use = false;
        }
        let defined = words
            .windows(2)
            .any(|w| w[1] == name && (ITEM_KEYWORDS.contains(&w[0]) || w[0] == "macro_rules!"));
        if defined {
            return true;
        }
    }
    false
}

/// Parse `crates/check/lints/<lint>.allow`: `suffix [:: fragment]` lines.
pub(crate) fn load_allowlist(root: &Path, lint: &str) -> Vec<(String, Option<String>)> {
    let path = root
        .join("crates/check/lints")
        .join(format!("{lint}.allow"));
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match line.split_once("::") {
            Some((suffix, frag)) => {
                entries.push((suffix.trim().to_string(), Some(frag.trim().to_string())))
            }
            None => entries.push((line.to_string(), None)),
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    struct TempRoot(PathBuf);

    impl TempRoot {
        fn new() -> Self {
            let dir = std::env::temp_dir().join(format!(
                "rrq-lint-test-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            TempRoot(dir)
        }

        fn write(&self, rel: &str, content: &str) {
            let path = self.0.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn unwrap_src() -> String {
        format!("fn f() {{ x{}; }}\n", PAT_UNWRAP)
    }

    #[test]
    fn unwrap_in_recovery_is_flagged() {
        let root = TempRoot::new();
        root.write("crates/storage/src/recovery.rs", &unwrap_src());
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-unwrap-in-recovery");
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn unwrap_elsewhere_is_fine() {
        let root = TempRoot::new();
        root.write("crates/storage/src/kv.rs", &unwrap_src());
        let out = run(&root.0).unwrap();
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn test_module_is_skipped() {
        let root = TempRoot::new();
        let src = format!(
            "fn ok() {{}}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ x{}; }}\n}}\n",
            PAT_UNWRAP
        );
        root.write("crates/storage/src/recovery.rs", &src);
        let out = run(&root.0).unwrap();
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn raw_spawn_flagged_except_in_threads_rs() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ std::{}|| ()); }}\n", PAT_SPAWN);
        root.write("crates/core/src/server.rs", &src);
        root.write("crates/core/src/threads.rs", &src);
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-raw-spawn");
        assert!(out.findings[0].file.ends_with("core/src/server.rs"));
    }

    #[test]
    fn wallclock_in_sim_flagged() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ let _ = {}(); }}\n", PAT_INSTANT);
        root.write("crates/sim/src/driver.rs", &src);
        root.write("crates/qm/src/ops.rs", &src); // out of scope
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-wallclock-in-sim");
    }

    #[test]
    fn allowlist_suppresses_by_suffix_and_fragment() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ std::{}|| ()); }}\n", PAT_SPAWN);
        root.write("crates/net/src/bus.rs", &src);
        root.write(
            "crates/check/lints/no-raw-spawn.allow",
            "# io threads predate the helper\nnet/src/bus.rs :: std::\n",
        );
        let out = run(&root.0).unwrap();
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn allowlist_fragment_must_match() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ std::{}|| ()); }}\n", PAT_SPAWN);
        root.write("crates/net/src/bus.rs", &src);
        root.write(
            "crates/check/lints/no-raw-spawn.allow",
            "net/src/bus.rs :: something_else\n",
        );
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.suppressed, 0);
    }

    #[test]
    fn comment_lines_are_ignored() {
        let root = TempRoot::new();
        let src = format!("// illustrative: x{};\nfn ok() {{}}\n", PAT_UNWRAP);
        root.write("crates/storage/src/recovery.rs", &src);
        let out = run(&root.0).unwrap();
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn wallclock_in_obs_flagged() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ let _ = {}(); }}\n", PAT_INSTANT);
        root.write("crates/obs/src/clock.rs", &src);
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-wallclock-in-sim");
    }

    fn catalogue(rows: &[&str]) -> String {
        let mut md = String::from("| name | type |\n|---|---|\n");
        for r in rows {
            md.push_str(&format!("| `{r}` | counter |\n"));
        }
        md
    }

    #[test]
    fn undeclared_metric_name_is_flagged() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ obs{}\"qm.typo\"); }}\n", OBS_CALL_PATS[1]);
        root.write("crates/qm/src/ops.rs", &src);
        root.write("crates/obs/METRICS.md", &catalogue(&[]));
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "metric-catalogue");
        assert!(out.findings[0].excerpt.contains("qm.typo"));
        assert!(out.findings[0].file.ends_with("qm/src/ops.rs"));
    }

    #[test]
    fn undeclared_metric_name_at_a_handle_call_is_flagged() {
        let root = TempRoot::new();
        let src = format!(
            "fn f(&self) {{\n    self.obs{pat}\"qm.typo\");\n    not_a_handle{pat_fn}\"qm.other\");\n}}\n",
            pat = OBS_CALL_PATS[1],
            pat_fn = OBS_CALL_PATS[1].replace('.', "_"),
        );
        root.write("crates/qm/src/ops.rs", &src);
        root.write("crates/obs/METRICS.md", &catalogue(&[]));
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].lint, "metric-catalogue");
        assert_eq!(out.findings[0].line, 2);
        assert!(out.findings[0].excerpt.contains("qm.typo"));
    }

    #[test]
    fn declared_names_satisfy_the_catalogue_rule() {
        let root = TempRoot::new();
        // All three extraction paths: a same-line literal, a wrapped call
        // with the literal on the next line, and a const-routed name.
        let src = format!(
            "const DEPTH: &str = \"qm.depth\";\nfn f() {{\n    obs{pinc}\"qm.ops\");\n    self.obs{pobs}\n        \"qm.ticks\", 3);\n    obs{pgauge}DEPTH, 1);\n}}\n",
            pinc = OBS_CALL_PATS[1],
            pobs = OBS_CALL_PATS[3],
            pgauge = OBS_CALL_PATS[2],
        );
        root.write("crates/qm/src/ops.rs", &src);
        root.write(
            "crates/obs/METRICS.md",
            &catalogue(&["qm.ops", "qm.ticks", "qm.depth"]),
        );
        let out = run(&root.0).unwrap();
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn wrapped_and_const_routed_names_are_still_checked() {
        let root = TempRoot::new();
        let src = format!(
            "const DEPTH: &str = \"qm.depth\";\nfn f() {{\n    obs{pobs}\n        \"qm.ticks\", 3);\n    obs{pgauge}DEPTH, 1);\n}}\n",
            pobs = OBS_CALL_PATS[3],
            pgauge = OBS_CALL_PATS[2],
        );
        root.write("crates/qm/src/ops.rs", &src);
        root.write("crates/obs/METRICS.md", &catalogue(&[]));
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 2, "{:?}", out.findings);
        assert!(out.findings.iter().all(|f| f.lint == "metric-catalogue"));
        assert!(out.findings.iter().any(|f| f.excerpt.contains("qm.ticks")));
        assert!(out.findings.iter().any(|f| f.excerpt.contains("qm.depth")));
    }

    #[test]
    fn duplicate_catalogue_rows_are_flagged() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ obs{}\"qm.ops\"); }}\n", OBS_CALL_PATS[1]);
        root.write("crates/qm/src/ops.rs", &src);
        root.write("crates/obs/METRICS.md", &catalogue(&["qm.ops", "qm.ops"]));
        let out = run(&root.0).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "metric-catalogue");
        assert!(out.findings[0].file.ends_with("METRICS.md"));
        assert_eq!(out.findings[0].line, 4, "second row of the two");
    }

    #[test]
    fn obs_crate_sources_are_out_of_catalogue_scope() {
        let root = TempRoot::new();
        let src = format!("fn f() {{ obs{}\"doc.example\", 1); }}\n", OBS_CALL_PATS[0]);
        root.write("crates/obs/src/lib.rs", &src);
        root.write("crates/obs/METRICS.md", &catalogue(&[]));
        let out = run(&root.0).unwrap();
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }
}
