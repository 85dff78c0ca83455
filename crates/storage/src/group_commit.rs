//! The group-commit coordinator.
//!
//! Classic group commit (DeWitt et al., cited in the paper's §10 discussion
//! of logging for main-memory queue stores): when N transactions reach their
//! commit point at about the same time, one log force can make all of their
//! commit records durable at once, so the disk pays one sync per *group*
//! instead of one per transaction.
//!
//! The coordinator tracks a durable watermark — the log length known to have
//! reached stable storage. A committer that has appended its commit record at
//! offset `target` calls [`GroupCommit::sync_through`]; if the watermark
//! already covers `target` the force it needed happened on someone else's
//! sync and it returns immediately. Otherwise the first arrival becomes the
//! *leader*: it issues one [`Wal::sync`] and advances the watermark past every
//! record appended before the sync. Followers park on a condition variable
//! and wake when the watermark passes their target. Batching is purely
//! opportunistic — whoever arrives while the leader is inside `sync` rides
//! the next group; the leader never waits for company (a server that wants
//! more commits per force defers them and closes an epoch, DESIGN.md S26).
//!
//! The write-ahead rule is untouched: `sync_through` returns only once the
//! caller's commit record is durable, and the store applies writes to the
//! shared tree strictly after that return. A crash between the group's sync
//! and a follower's wakeup loses nothing — the follower's record was covered
//! by the leader's sync, so recovery replays it (see
//! `crates/storage/tests/group_commit.rs`).

use crate::error::StorageResult;
use crate::wal::Wal;
use parking_lot::{Condvar, Mutex};

/// Counters exposed for benchmarks: `requests / groups` is the achieved
/// batching factor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Number of `sync_through` calls that needed durability work.
    pub requests: u64,
    /// Number of device syncs actually issued (groups formed).
    pub groups: u64,
}

#[derive(Debug, Default)]
struct GcState {
    /// Log length known durable. Reset by [`GroupCommit::on_truncate`].
    durable: u64,
    /// Record count known durable (metrics: per-group batch sizes).
    durable_records: u64,
    /// A leader is currently syncing.
    leader_active: bool,
    stats: GroupCommitStats,
}

/// Batches concurrent log forces into one device sync per group.
#[derive(Default)]
pub struct GroupCommit {
    state: Mutex<GcState>,
    cv: Condvar,
}

impl GroupCommit {
    /// New coordinator: nothing durable yet, no leader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Block until log bytes `[0, target)` are durable, forcing the device at
    /// most once per group of concurrent callers.
    ///
    /// On a sync error the leader surfaces the error to itself and wakes the
    /// followers; each follower re-enters the loop, and the first becomes the
    /// next leader and observes the device error first-hand. No caller is
    /// ever told its record is durable when the sync failed.
    pub fn sync_through(&self, wal: &Wal, target: u64) -> StorageResult<()> {
        let mut g = self.state.lock();
        if g.durable >= target {
            return Ok(());
        }
        g.stats.requests += 1;
        rrq_obs::counter_inc("storage.gc.sync_requests");
        let mut waited = false;
        loop {
            if g.durable >= target {
                if waited {
                    // Satisfied by another leader's force without syncing.
                    rrq_obs::counter_inc("storage.gc.follower_wakeups");
                }
                return Ok(());
            }
            if !g.leader_active {
                g.leader_active = true;
                drop(g);
                // Everything appended before this point is covered by the
                // sync below: the device moves its whole volatile tail to
                // stable storage in one force.
                let covered = wal.len();
                let covered_records = wal.records_appended();
                let res = wal.sync();
                g = self.state.lock();
                g.leader_active = false;
                match res {
                    Ok(()) => {
                        g.durable = g.durable.max(covered);
                        g.stats.groups += 1;
                        rrq_obs::counter_inc("storage.gc.groups");
                        let batch = covered_records.saturating_sub(g.durable_records);
                        g.durable_records = g.durable_records.max(covered_records);
                        rrq_obs::observe("storage.gc.batch_records", batch);
                        self.cv.notify_all();
                        // The leader's own record is covered by its own sync;
                        // it returns through the `durable >= target` check
                        // above without counting as a follower wakeup.
                        waited = false;
                    }
                    Err(e) => {
                        // Wake followers so one of them retries as leader.
                        self.cv.notify_all();
                        return Err(e);
                    }
                }
            } else {
                waited = true;
                self.cv.wait(&mut g);
            }
        }
    }

    /// The log was truncated (checkpoint): durable offsets restart at zero.
    pub fn on_truncate(&self) {
        let mut g = self.state.lock();
        g.durable = 0;
        g.durable_records = 0;
    }

    /// Snapshot of the batching counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, LatencyDisk, SimDisk};
    use crate::wal::RecordKind;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn single_caller_syncs_once() {
        let disk = SimDisk::new();
        let wal = Wal::new(Arc::new(disk.clone()));
        let gc = GroupCommit::new();
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        gc.sync_through(&wal, wal.len()).unwrap();
        assert_eq!(disk.stats().syncs, 1);
        assert_eq!(disk.volatile_len(), 0);
        let s = gc.stats();
        assert_eq!((s.requests, s.groups), (1, 1));
    }

    #[test]
    fn covered_target_returns_without_new_sync() {
        let disk = SimDisk::new();
        let wal = Wal::new(Arc::new(disk.clone()));
        let gc = GroupCommit::new();
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        let t = wal.len();
        gc.sync_through(&wal, t).unwrap();
        gc.sync_through(&wal, t).unwrap();
        assert_eq!(disk.stats().syncs, 1, "second call was already durable");
    }

    #[test]
    fn slow_force_batches_concurrent_committers() {
        // Eight committers append and ask for durability together; a force
        // takes 5 ms, so whoever is not the first leader piles up behind its
        // sync and is covered by the next one.
        let disk = SimDisk::new();
        let slow = LatencyDisk::new(Arc::new(disk.clone()), Duration::from_millis(5));
        let wal = Arc::new(Wal::new(Arc::new(slow)));
        let gc = Arc::new(GroupCommit::new());
        let start = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let (wal, gc, start) = (Arc::clone(&wal), Arc::clone(&gc), Arc::clone(&start));
                let disk = disk.clone();
                std::thread::spawn(move || {
                    wal.append(i, RecordKind::Commit, &[]).unwrap();
                    let target = wal.len();
                    start.wait();
                    gc.sync_through(&wal, target).unwrap();
                    assert!(disk.durable_len() >= target, "durable on return");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = gc.stats();
        assert!(
            s.groups < s.requests,
            "8 committers behind a 5ms force must share groups: {s:?}"
        );
    }

    #[test]
    fn truncate_resets_watermark() {
        let disk = SimDisk::new();
        let wal = Wal::new(Arc::new(disk.clone()));
        let gc = GroupCommit::new();
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        gc.sync_through(&wal, wal.len()).unwrap();
        wal.reset().unwrap();
        gc.on_truncate();
        wal.append(2, RecordKind::Commit, &[]).unwrap();
        gc.sync_through(&wal, wal.len()).unwrap();
        assert_eq!(disk.volatile_len(), 0, "post-truncate record forced");
    }

    #[test]
    fn truncating_one_log_leaves_sibling_watermark_intact() {
        // Regression: with one coordinator per log partition, a checkpoint
        // truncating log A must reset only A's watermark. A global reset
        // would make log B's already-durable records look volatile — a
        // commit racing the checkpoint on B would re-force needlessly, and
        // B's watermark could no longer prove its commit record durable.
        let (disk_a, disk_b) = (SimDisk::new(), SimDisk::new());
        let wal_a = Wal::new(Arc::new(disk_a.clone()));
        let wal_b = Wal::new(Arc::new(disk_b.clone()));
        let (gc_a, gc_b) = (GroupCommit::new(), GroupCommit::new());
        wal_b.append(1, RecordKind::Commit, &[]).unwrap();
        let b_target = wal_b.len();
        gc_b.sync_through(&wal_b, b_target).unwrap();
        let b_syncs = disk_b.stats().syncs;

        // Checkpoint truncates log A only.
        wal_a.append(2, RecordKind::Commit, &[]).unwrap();
        gc_a.sync_through(&wal_a, wal_a.len()).unwrap();
        wal_a.reset().unwrap();
        gc_a.on_truncate();

        // Sibling B's watermark still covers its commit record: no new
        // device sync is needed to prove it durable.
        gc_b.sync_through(&wal_b, b_target).unwrap();
        assert_eq!(
            disk_b.stats().syncs,
            b_syncs,
            "sibling log re-forced after a checkpoint it was not part of"
        );
        // And A's own watermark did reset: its next record is forced.
        wal_a.append(3, RecordKind::Commit, &[]).unwrap();
        gc_a.sync_through(&wal_a, wal_a.len()).unwrap();
        assert_eq!(disk_a.volatile_len(), 0);
    }

    #[test]
    fn sync_error_is_surfaced_not_swallowed() {
        let disk = SimDisk::new();
        let wal = Wal::new(Arc::new(disk.clone()));
        let gc = GroupCommit::new();
        wal.append(1, RecordKind::Commit, &[]).unwrap();
        let target = wal.len();
        disk.fail();
        assert!(gc.sync_through(&wal, target).is_err());
        disk.repair();
        gc.sync_through(&wal, target).unwrap();
    }
}
