//! Explorer lockstep at one and four repository partitions — layer 2 of the
//! partition-equivalence battery (`repo_partition_equiv.rs` has layer 1 and
//! the description of both). A file, so a process, of its own: the explorer
//! installs the process-global conformance observer, and a sibling test's
//! clerk reporting into it trips the checker (ROADMAP item 1).

use rrq_sim::explorer::{run_script, ExplorerConfig};
use rrq_sim::script::FaultScript;

/// Full-stack lockstep: the same generated fault scripts must leave the
/// oracle battery silent at one *and* at four repository partitions — same
/// replies (both runs hit the same balance model exactly), same ledger
/// (exactly-once in both), money conserved in both.
#[test]
fn generated_scripts_pass_oracles_at_one_and_four_partitions() {
    for seed in 1..=10u64 {
        let script = FaultScript::generate(seed);
        for parts in [1usize, 4] {
            let cfg = ExplorerConfig {
                repo_partitions: Some(parts),
                ..ExplorerConfig::default()
            };
            let outcome = run_script(&script, &cfg);
            assert_eq!(
                outcome.violations,
                Vec::<String>::new(),
                "seed {seed} at {parts} partition(s) tripped the oracle battery"
            );
        }
    }
}
