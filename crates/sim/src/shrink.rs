//! Greedy shrinker for failing fault scripts.
//!
//! Given a script whose oracles fire, repeatedly try smaller variants —
//! drop an event, weaken an event (torn crash → clean crash, bidirectional
//! cut → one direction, long outage → one failed op), trim the workload to
//! the last faulted serial — keeping each variant that still fails, until a
//! fixpoint. Every candidate is a full deterministic re-run, so the result
//! is a minimal *reproducible* failure, ready to check in as a regression
//! file.

use crate::explorer::{run_script, ExplorerConfig};
use crate::script::{FaultEvent, FaultScript, PartitionDirection};

/// What the shrinker did.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The smallest still-failing script found.
    pub script: FaultScript,
    /// Candidate runs executed (each one a full script execution).
    pub attempts: u64,
    /// Did the input script fail at all? When `false`, `script` is just the
    /// input unchanged.
    pub input_failed: bool,
}

/// Strictly-weaker variants of one event, strongest first.
fn weakenings(ev: &FaultEvent) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    match *ev {
        FaultEvent::ServerCrash {
            serial,
            torn: Some(_),
        } => out.push(FaultEvent::ServerCrash { serial, torn: None }),
        FaultEvent::Partition {
            serial,
            direction,
            ops,
        } => {
            if direction == PartitionDirection::Both {
                for d in [
                    PartitionDirection::ClientToQm,
                    PartitionDirection::QmToClient,
                ] {
                    out.push(FaultEvent::Partition {
                        serial,
                        direction: d,
                        ops,
                    });
                }
            }
            if ops > 1 {
                out.push(FaultEvent::Partition {
                    serial,
                    direction,
                    ops: 1,
                });
            }
        }
        FaultEvent::Delay { serial, millis } if millis > 5 => {
            out.push(FaultEvent::Delay { serial, millis: 5 })
        }
        FaultEvent::RepoCrash {
            serial,
            part,
            torn: Some(_),
        } => out.push(FaultEvent::RepoCrash {
            serial,
            part,
            torn: None,
        }),
        FaultEvent::PartPartition {
            serial,
            part,
            direction,
            ops,
        } => {
            if direction == PartitionDirection::Both {
                for d in [
                    PartitionDirection::ClientToQm,
                    PartitionDirection::QmToClient,
                ] {
                    out.push(FaultEvent::PartPartition {
                        serial,
                        part,
                        direction: d,
                        ops,
                    });
                }
            }
            if ops > 1 {
                out.push(FaultEvent::PartPartition {
                    serial,
                    part,
                    direction,
                    ops: 1,
                });
            }
        }
        _ => {}
    }
    out
}

/// Shrink `script` to a (locally) minimal still-failing script.
pub fn shrink(script: &FaultScript, cfg: &ExplorerConfig) -> ShrinkReport {
    let mut attempts = 0u64;
    let mut fails = |s: &FaultScript| {
        attempts += 1;
        run_script(s, cfg).failed()
    };
    let mut best = script.clone();
    if !fails(&best) {
        return ShrinkReport {
            script: best,
            attempts,
            input_failed: false,
        };
    }
    loop {
        let mut improved = false;

        // Drop each event outright.
        let mut i = 0;
        while i < best.events.len() {
            let mut cand = best.clone();
            cand.events.remove(i);
            if fails(&cand) {
                best = cand;
                improved = true;
            } else {
                i += 1;
            }
        }

        // Weaken the events that survived.
        for i in 0..best.events.len() {
            for weaker in weakenings(&best.events[i]) {
                let mut cand = best.clone();
                cand.events[i] = weaker;
                if fails(&cand) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }

        // Trim the workload past the last faulted serial.
        let last_faulted = best
            .events
            .iter()
            .map(FaultEvent::serial)
            .max()
            .unwrap_or(1);
        if best.n_requests > last_faulted {
            let mut cand = best.clone();
            cand.n_requests = last_faulted;
            if fails(&cand) {
                best = cand;
                improved = true;
            }
        }

        if !improved {
            break;
        }
    }
    ShrinkReport {
        script: best,
        attempts,
        input_failed: true,
    }
}
