//! The workspace-level analyzer gate: the real tree must scan clean.
//!
//! This is the test-suite twin of the analyzer half of the `rrq-lint`
//! ci.sh step. If it fails, either a real invariant was broken (fix the
//! code) or the analyzer has a new false positive (fix the analyzer or, as
//! a last resort, add an explained allowlist entry under
//! `crates/check/lints/`).

use std::path::PathBuf;

use rrq_check::analyze;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_scans_clean() {
    let out = analyze::run(&workspace_root()).unwrap();
    let rendered: Vec<String> = out.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        out.findings.is_empty(),
        "analyzer findings on the workspace:\n{}",
        rendered.join("\n")
    );
    // Sanity: the scan actually covered the tree (84 files at the time of
    // writing) rather than silently matching nothing.
    assert!(
        out.files_scanned > 20,
        "only {} files scanned — collection is broken",
        out.files_scanned
    );
}

#[test]
fn catalogue_classes_all_match_somewhere() {
    // Every class declared in LOCKS.md should have at least one acquisition
    // site in the tree; a dead class means the catalogue drifted from the
    // code and the rules silently stopped covering that lock.
    let root = workspace_root();
    let cat = analyze::catalogue::load(&root).unwrap();

    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            collect(&src, &mut files);
        }
    }
    let mut seen = vec![false; cat.classes.len()];
    for file in &files {
        let rel_owned = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let facts = analyze::scan::scan_file(file, &rel_owned, &cat).unwrap();
        for f in &facts.fns {
            for e in &f.events {
                if let analyze::scan::EventKind::Acquire { class } = &e.kind {
                    seen[*class] = true;
                }
            }
        }
    }
    let dead: Vec<&str> = cat
        .classes
        .iter()
        .zip(&seen)
        .filter(|(_, &s)| !s)
        .map(|(c, _)| c.name.as_str())
        .collect();
    assert!(
        dead.is_empty(),
        "classes with no acquisition site: {dead:?}"
    );
}

fn collect(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
