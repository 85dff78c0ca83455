//! The checked-in cross-partition crash script (see `repo_xpart_crash.rs`
//! for the battery this belongs to). A file, so a process, of its own: the
//! explorer installs the process-global observers (ROADMAP item 1).

use rrq_qm::route::partition_of;
use rrq_sim::explorer::{self, ExplorerConfig};
use std::path::PathBuf;

/// The checked-in regression script: partition-scoped crashes (one torn)
/// and a single-partition network cut, replayed at five repository
/// partitions — where request and reply queues live on different partitions,
/// so every request commits cross-partition through the coordinator log.
/// The oracle battery must stay silent and every crash must have fired.
#[test]
fn checked_in_repo_crash_script_stays_green_across_xpart_commits() {
    const PARTS: usize = 5;
    assert_ne!(
        partition_of("req", PARTS),
        partition_of("reply.c1", PARTS),
        "test premise: five partitions split the request and reply queues"
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/repo-crash-xpart.rrqs");
    let cfg = ExplorerConfig {
        repo_partitions: Some(PARTS),
        ..ExplorerConfig::default()
    };
    let (script, outcome) = explorer::replay_file(&path, &cfg).unwrap();
    assert_eq!(script.events.len(), 4, "script should carry four events");
    assert_eq!(
        outcome.violations,
        Vec::<String>::new(),
        "oracle battery must stay green across partition-scoped crashes; trace:\n{:#?}",
        outcome.trace
    );
    assert_eq!(outcome.server_crashes, 3, "all three repo crashes fired");
}
