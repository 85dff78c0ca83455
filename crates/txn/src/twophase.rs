//! The durable two-phase-commit coordinator log.
//!
//! Once every participant has prepared, the coordinator forces a decision
//! record here *before* telling anyone to commit. After a crash, in-doubt
//! participants are resolved by consulting [`CoordinatorLog::decisions`]:
//! a logged commit decision is replayed, anything else is aborted (presumed
//! abort — the paper's §11 discusses exactly this "forgetting" behaviour of
//! transaction managers, which motivates queues as the longer-lived record
//! of a request's disposition).
//!
//! Decisions that reach [`Wal::force_through`] while another decision's
//! force is in flight share the next device sync.

use crate::error::TxnResult;
use crate::ids::TxnId;
use rrq_storage::codec::{put, Reader};
use rrq_storage::disk::Disk;
use rrq_storage::wal::{RecordKind, Wal};
use std::collections::HashMap;
use std::sync::Arc;

/// WAL custom-record subtype for decisions.
const DECISION_KIND: RecordKind = RecordKind::Custom(0xC0);

/// Append-only log of commit/abort decisions.
pub struct CoordinatorLog {
    wal: Wal,
}

impl CoordinatorLog {
    /// Open over a device (shared with nothing else).
    pub fn new(disk: Arc<dyn Disk>) -> Self {
        CoordinatorLog {
            wal: Wal::new(disk),
        }
    }

    /// Durably record the outcome of `txn`. Must be called after all
    /// participants prepared and before any is told to commit.
    pub fn log_decision(&self, txn: TxnId, commit: bool) -> TxnResult<()> {
        let outcome = |b: &mut Vec<u8>| put::bool(b, commit);
        let end = self
            .wal
            .append_with(&mut Vec::new(), txn.raw(), DECISION_KIND, outcome)?;
        self.wal.force_through(end)?;
        Ok(())
    }

    /// Read back every decision (later records win, though a transaction
    /// only ever gets one). A transaction with none on record is presumed
    /// aborted.
    pub fn decisions(&self) -> TxnResult<HashMap<u64, bool>> {
        let mut out = HashMap::new();
        self.wal.scan_with(0, |_, txn, kind, payload| {
            if kind == DECISION_KIND {
                out.insert(txn, Reader::new(payload).bool()?);
            }
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_storage::disk::{CrashStyle, LatencyDisk, SimDisk};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn decisions_roundtrip() {
        let disk = SimDisk::new();
        let log = CoordinatorLog::new(Arc::new(disk.clone()));
        log.log_decision(TxnId(1), true).unwrap();
        log.log_decision(TxnId(2), false).unwrap();
        let d = log.decisions().unwrap();
        assert_eq!(d.get(&1), Some(&true));
        assert_eq!(d.get(&2), Some(&false));
        assert_eq!(d.get(&3), None);
    }

    #[test]
    fn decisions_survive_crash() {
        let disk = SimDisk::new();
        let log = CoordinatorLog::new(Arc::new(disk.clone()));
        log.log_decision(TxnId(9), true).unwrap();
        disk.crash(CrashStyle::DropVolatile);
        let log2 = CoordinatorLog::new(Arc::new(disk.clone()));
        assert_eq!(log2.decisions().unwrap().get(&9), Some(&true));
    }

    #[test]
    fn concurrent_decisions_share_a_force() {
        // Eight coordinators decide together on a log whose force takes
        // 3 ms: a decision logged while another's force is in flight rides
        // the next sync, and every decision that returned is durable.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5;
        let disk = SimDisk::new();
        let slow = LatencyDisk::new(Arc::new(disk.clone()), Duration::from_millis(3));
        let log = Arc::new(CoordinatorLog::new(Arc::new(slow)));
        let start = Arc::new(Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (log, start) = (Arc::clone(&log), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..PER_THREAD)
                        .map(|i| {
                            let txn = t * 100 + i + 1;
                            let commit = txn % 2 == 0;
                            log.log_decision(TxnId(txn), commit).map(|()| (txn, commit))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let logged: Vec<(u64, bool)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .map(Result::unwrap)
            .collect();
        let syncs = disk.stats().syncs;
        assert!(
            syncs < THREADS * PER_THREAD,
            "{syncs} syncs for {} decisions: no force was shared",
            THREADS * PER_THREAD
        );

        disk.crash(CrashStyle::DropVolatile);
        let d = CoordinatorLog::new(Arc::new(disk.clone()))
            .decisions()
            .unwrap();
        for (txn, commit) in logged {
            assert_eq!(d.get(&txn), Some(&commit), "decision {txn} returned Ok");
        }
    }

    #[test]
    fn undetermined_after_torn_decision() {
        let disk = SimDisk::new();
        let log = CoordinatorLog::new(Arc::new(disk.clone()));
        log.log_decision(TxnId(1), true).unwrap();
        // A second decision that tears mid-write must not surface.
        log.wal.append(2, DECISION_KIND, &[1]).unwrap();
        disk.crash(CrashStyle::Torn { keep: 4 });
        let log2 = CoordinatorLog::new(Arc::new(disk.clone()));
        let d = log2.decisions().unwrap();
        assert_eq!(d.get(&1), Some(&true));
        assert_eq!(d.get(&2), None, "torn decision reads as no decision");
    }
}
