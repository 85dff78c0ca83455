//! Negative-test fixtures for the analyzer's rule families (the second half
//! of `rrq-lint`).
//!
//! Each fixture under `tests/fixtures/<name>/` is a miniature workspace
//! root (its own `LOCKS.md` plus `crates/app/src/lib.rs`) with exactly one
//! deliberately-broken example of a rule; the tests assert the exact
//! finding output — file:line, message, and witnessing chain — so a change
//! to the analyzer's report format or detection logic fails loudly here.
//! The `clean` fixture proves the same catalogue shape yields zero
//! findings on conforming code.

use std::path::PathBuf;

use rrq_check::analyze;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

const LIB: &str = "crates/app/src/lib.rs";

#[test]
fn lock_order_fixture_reports_both_violations_with_chains() {
    let out = analyze::run(&fixture("lock-order")).unwrap();
    assert_eq!(out.files_scanned, 1);
    assert_eq!(out.findings.len(), 2, "{:#?}", out.findings);

    let direct = &out.findings[0];
    assert_eq!(direct.rule, analyze::RULE_LOCK_ORDER);
    assert_eq!(direct.file, LIB);
    assert_eq!(direct.line, 7);
    assert_eq!(
        direct.message,
        "acquires `a-lock` while holding `b-lock`: edge `b-lock` -> `a-lock` \
         is not in the declared order (LOCKS.md)"
    );
    assert_eq!(
        direct.chain,
        vec![
            format!("`b-lock` acquired at {LIB}:6"),
            format!("`a-lock` then acquired at {LIB}:7 in fn `bad_direct`"),
        ]
    );

    let through_call = &out.findings[1];
    assert_eq!(through_call.rule, analyze::RULE_LOCK_ORDER);
    assert_eq!(through_call.line, 18);
    assert_eq!(
        through_call.message,
        "acquires `a-lock` while holding `b-lock`: edge `b-lock` -> `a-lock` \
         is not in the declared order (LOCKS.md) (through `helper_acquires_a`)"
    );
    assert_eq!(
        through_call.chain,
        vec![
            format!("`b-lock` acquired at {LIB}:17"),
            format!(
                "`a-lock` then acquired via `helper_acquires_a` at {LIB}:18 \
                 in fn `bad_through_call`"
            ),
        ]
    );
}

#[test]
fn no_block_fixture_reports_the_blocking_op_and_acquisition_site() {
    let out = analyze::run(&fixture("no-block")).unwrap();
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    let f = &out.findings[0];
    assert_eq!(f.rule, analyze::RULE_NO_BLOCK);
    assert_eq!(f.file, LIB);
    assert_eq!(f.line, 7);
    assert_eq!(
        f.message,
        format!(
            "blocking operation `{}` while `a-lock` (no-block) is held",
            concat!(".re", "cv(")
        )
    );
    assert_eq!(
        f.chain,
        vec![format!("`a-lock` acquired at {LIB}:6 in fn `bad`")]
    );
}

#[test]
fn catalog_lock_fixture_flags_the_force_under_the_guard_and_not_the_fill() {
    // The workspace's `qm-catalog` class, on both acquisition forms: the
    // read-lock probe and the fill's store read under the write lock are
    // clean, the invalidation that holds the write lock across the system
    // transaction's log force is the one finding.
    let out = analyze::run(&fixture("catalog-lock")).unwrap();
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    let f = &out.findings[0];
    assert_eq!(f.rule, analyze::RULE_NO_BLOCK);
    assert_eq!(f.file, LIB);
    assert_eq!(f.line, 18);
    assert_eq!(
        f.message,
        format!(
            "blocking operation `{}` while `qm-catalog` (no-block) is held",
            concat!(".sy", "nc()")
        )
    );
    assert_eq!(
        f.chain,
        vec![format!(
            "`qm-catalog` acquired at {LIB}:16 in fn `update_queue_bad`"
        )]
    );
}

#[test]
fn borrowed_walk_fixture_flags_the_index_lock_inside_the_closure_only() {
    // The store's borrowed walk is a scoped binding: `kv-mem` is live for
    // its closure argument and dead after it, so installing after the walk
    // is clean and locking the index inside it is the one finding.
    let out = analyze::run(&fixture("borrowed-walk")).unwrap();
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    let f = &out.findings[0];
    assert_eq!(f.rule, analyze::RULE_LOCK_ORDER);
    assert_eq!(f.file, LIB);
    assert_eq!(f.line, 18);
    assert_eq!(
        f.message,
        "acquires `qindex-outer` while holding `kv-mem`: edge `kv-mem` -> \
         `qindex-outer` is not in the declared order (LOCKS.md)"
    );
    assert_eq!(
        f.chain,
        vec![
            format!("`kv-mem` acquired at {LIB}:17"),
            format!("`qindex-outer` then acquired at {LIB}:18 in fn `rebuild_bad`"),
        ]
    );
}

#[test]
fn durability_fixture_reports_undominated_mutation_and_unsynced_append() {
    // Two shapes of the same bug: a plain `append` of a commit record, and
    // the store's `append_with` framing the write set into a reused buffer.
    let out = analyze::run(&fixture("durability")).unwrap();
    assert_eq!(out.findings.len(), 4, "{:#?}", out.findings);
    for (pair, (func, line)) in out
        .findings
        .chunks(2)
        .zip([("commit_bad", 7), ("commit_bad_framed", 14)])
    {
        let append = &pair[0];
        assert_eq!(append.rule, analyze::RULE_DURABILITY);
        assert_eq!(append.file, LIB);
        assert_eq!(append.line, line);
        assert_eq!(
            append.message,
            format!(
                "commit-record append in fn `{func}` is not followed by a sync \
                 on every path"
            )
        );
        assert_eq!(
            append.chain,
            vec![format!(
                "append at {LIB}:{line} has no post-dominating sync"
            )]
        );

        let mutation = &pair[1];
        assert_eq!(mutation.rule, analyze::RULE_DURABILITY);
        assert_eq!(mutation.line, line + 1);
        assert_eq!(
            mutation.message,
            format!(
                "commit-point mutation `{}` in fn `{func}` is not dominated \
                 by a durable sync",
                concat!(".mut", "ate(")
            )
        );
        assert_eq!(
            mutation.chain,
            vec![format!(
                "no dominating durability event on some path to {LIB}:{}",
                line + 1
            )]
        );
    }
}

#[test]
fn relaxed_fixture_reports_the_ordering_with_file_and_line() {
    let out = analyze::run(&fixture("relaxed")).unwrap();
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    let f = &out.findings[0];
    assert_eq!(f.rule, analyze::RULE_RELAXED);
    assert_eq!(f.file, LIB);
    assert_eq!(f.line, 5);
    assert_eq!(
        f.message,
        format!(
            "atomic uses `{}` outside `crates/obs`; state the intended \
             ordering (Acquire/Release/AcqRel or SeqCst)",
            analyze::scan::PAT_RELAXED
        )
    );
    assert!(f.chain.is_empty());
}

#[test]
fn clean_fixture_yields_zero_findings() {
    let out = analyze::run(&fixture("clean")).unwrap();
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
    assert_eq!(out.files_scanned, 1);
    assert_eq!(out.suppressed, 0);
}

#[test]
fn rule_subset_runs_only_the_requested_families() {
    // The lock-order fixture has two lock-order findings and nothing else;
    // asking only for durability must come back clean.
    let out = analyze::run_rules(&fixture("lock-order"), &[analyze::RULE_DURABILITY]).unwrap();
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
}
