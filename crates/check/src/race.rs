//! Happens-before race detection over instrumented shared state.
//!
//! [`Detector`] is a [`RaceSink`]: attached to an `rrq_obs::Obs` handle, it
//! receives the three kinds of synchronization edge the production crates
//! report through that handle —
//!
//! * lock edges — `lock_acquired` / `lock_released` from
//!   `rrq_txn::lock::LockManager` grant and release points (a §5 lock
//!   transfer is an acquire by the inheriting thread);
//! * queue edges — `queue_enqueued` / `queue_dequeued` from the queue
//!   manager: a dequeue observes everything the enqueuing transaction did
//!   before enqueuing, which is exactly the paper's recoverable-request
//!   ordering;
//! * store-latch edges — `serialized_read` / `serialized_write` for records
//!   (like §4.3 registrations) that are serialized by the KV store's
//!   internal latch rather than by an explicit lock —
//!
//! and checks tracked-cell accesses (`on_read` / `on_write`) against the
//! resulting happens-before order: two conflicting accesses (at least one
//! write) with neither ordered before the other are reported with both
//! access backtraces. A detector sees its handle's events and no other's,
//! and gives each thread it hears from a vector-clock slot of its own.

use crate::clock::VectorClock;
use rrq_obs::{Obs, RaceSink};
use std::backtrace::Backtrace;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

/// Read or write, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read of the tracked cell.
    Read,
    /// A write of the tracked cell.
    Write,
}

/// One recorded access to a tracked cell.
#[derive(Debug, Clone)]
pub struct Access {
    /// Read or write.
    pub kind: AccessKind,
    /// The accessing thread's slot in its detector.
    pub thread: usize,
    /// The accessing thread's own clock component at access time; the
    /// access happens-before thread `t` iff `C_t[thread] >= tick`.
    tick: u64,
    /// Captured backtrace of the access site.
    pub stack: String,
}

/// Two conflicting accesses with no happens-before order between them.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Name of the tracked cell.
    pub cell: String,
    /// The access recorded first.
    pub earlier: Access,
    /// The access that detected the conflict.
    pub later: Access,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "data race on `{}`: {:?} by thread {} unordered with {:?} by thread {}",
            self.cell, self.earlier.kind, self.earlier.thread, self.later.kind, self.later.thread
        )?;
        writeln!(f, "--- first access ---\n{}", self.earlier.stack)?;
        writeln!(f, "--- second access ---\n{}", self.later.stack)
    }
}

#[derive(Default)]
struct CellState {
    writes: Vec<Access>,
    reads: Vec<Access>,
}

#[derive(Default)]
struct State {
    /// Each thread's clock slot, in order of first appearance.
    slots: HashMap<ThreadId, usize>,
    threads: Vec<VectorClock>,
    resources: HashMap<String, VectorClock>,
    cells: HashMap<String, CellState>,
    reports: Vec<RaceReport>,
}

impl State {
    /// The calling thread's slot, allocated on its first event.
    fn slot(&mut self) -> usize {
        let next = self.slots.len();
        let slot = *self
            .slots
            .entry(std::thread::current().id())
            .or_insert(next);
        if slot == self.threads.len() {
            let mut clock = VectorClock::new();
            clock.tick(slot);
            self.threads.push(clock);
        }
        slot
    }
}

fn join_acquire(d: &mut State, slot: usize, resource: &str) {
    if let Some(r) = d.resources.get(resource) {
        let r = r.clone();
        d.threads[slot].join(&r);
    }
}

fn join_release(d: &mut State, slot: usize, resource: &str) {
    let t = d.threads[slot].clone();
    d.resources
        .entry(resource.to_string())
        .or_default()
        .join(&t);
    d.threads[slot].tick(slot);
}

fn record(d: &mut State, slot: usize, cell: &str, kind: AccessKind) {
    let me = d.threads[slot].clone();
    let cur = Access {
        kind,
        thread: slot,
        tick: me.get(slot),
        stack: Backtrace::force_capture().to_string(),
    };
    let cs = d.cells.entry(cell.to_string()).or_default();
    let ordered = |a: &Access| me.get(a.thread) >= a.tick;
    let mut conflicts: Vec<Access> = Vec::new();
    match kind {
        AccessKind::Write => {
            // A write conflicts with every unordered prior read or write.
            for prior in cs.writes.iter().chain(cs.reads.iter()) {
                if !ordered(prior) {
                    conflicts.push(prior.clone());
                }
            }
            cs.writes = vec![cur.clone()];
            cs.reads.clear();
        }
        AccessKind::Read => {
            // A read conflicts only with unordered prior writes.
            for prior in &cs.writes {
                if !ordered(prior) {
                    conflicts.push(prior.clone());
                }
            }
            cs.reads.retain(|a| !ordered(a));
            cs.reads.push(cur.clone());
        }
    }
    for earlier in conflicts {
        d.reports.push(RaceReport {
            cell: cell.to_string(),
            earlier,
            later: cur.clone(),
        });
    }
    d.threads[slot].tick(slot);
}

fn serialized(d: &mut State, slot: usize, cell: &str, kind: AccessKind) {
    let latch = format!("ser:{cell}");
    join_acquire(d, slot, &latch);
    record(d, slot, cell, kind);
    join_release(d, slot, &latch);
}

/// A happens-before detector attached to one handle (see the module docs).
#[derive(Default)]
pub struct Detector {
    state: Mutex<State>,
}

fn lock_poison_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Detector {
    /// A fresh detector attached to `obs`.
    pub fn attach(obs: &Obs) -> Arc<Detector> {
        let detector = Arc::new(Detector::default());
        obs.attach_race(Arc::clone(&detector) as Arc<dyn RaceSink>);
        detector
    }

    /// Run `f` on the state with the calling thread's slot.
    fn with(&self, f: impl FnOnce(&mut State, usize)) {
        let mut d = lock_poison_ok(&self.state);
        let slot = d.slot();
        f(&mut d, slot);
    }

    /// Drain the race reports accumulated so far.
    pub fn take_reports(&self) -> Vec<RaceReport> {
        std::mem::take(&mut lock_poison_ok(&self.state).reports)
    }

    /// Panic with every report if any race was observed.
    pub fn assert_race_free(&self) {
        let reports = self.take_reports();
        if !reports.is_empty() {
            let mut msg = format!("{} data race(s) detected:\n", reports.len());
            for r in &reports {
                msg.push_str(&format!("{r}\n"));
            }
            panic!("{msg}");
        }
    }
}

impl RaceSink for Detector {
    fn acquired(&self, resource: &str) {
        self.with(|d, slot| join_acquire(d, slot, resource));
    }

    fn released(&self, resource: &str) {
        self.with(|d, slot| join_release(d, slot, resource));
    }

    fn accessed(&self, cell: &str, write: bool, latched: bool) {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.with(|d, slot| {
            if latched {
                serialized(d, slot, cell, kind)
            } else {
                record(d, slot, cell, kind)
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A handle with a fresh detector attached.
    fn attached() -> (Obs, Arc<Detector>) {
        let obs = Obs::default();
        let d = Detector::attach(&obs);
        (obs, d)
    }

    // The tests name their cells with literals.
    fn on_read(obs: &Obs, cell: &str) {
        obs.on_read(|| cell.to_string());
    }
    fn on_write(obs: &Obs, cell: &str) {
        obs.on_write(|| cell.to_string());
    }
    fn serialized_read(obs: &Obs, cell: &str) {
        obs.serialized_read(|| cell.to_string());
    }
    fn serialized_write(obs: &Obs, cell: &str) {
        obs.serialized_write(|| cell.to_string());
    }

    /// Run `f` on a thread of its own with a clone of `obs`, and join it.
    fn on_thread(obs: &Obs, f: impl FnOnce(&Obs) + Send + 'static) {
        let obs = obs.clone();
        std::thread::spawn(move || f(&obs)).join().unwrap();
    }

    #[test]
    fn a_dormant_hook_does_not_build_its_cell_name() {
        let obs = Obs::default();
        let built = Cell::new(0);
        let name = || {
            built.set(built.get() + 1);
            String::from("cell/dormant")
        };
        obs.on_read(name);
        obs.on_write(name);
        obs.serialized_read(name);
        obs.serialized_write(name);
        assert_eq!(built.get(), 0);
    }

    #[test]
    fn a_live_hook_builds_its_cell_name_once() {
        let (obs, d) = attached();
        let built = Cell::new(0);
        obs.serialized_write(|| {
            built.set(built.get() + 1);
            String::from("cell/live")
        });
        assert_eq!(built.get(), 1);
        assert!(d.take_reports().is_empty());
    }

    #[test]
    fn same_thread_accesses_are_ordered() {
        let (obs, d) = attached();
        on_write(&obs, "cell/a");
        on_read(&obs, "cell/a");
        on_write(&obs, "cell/a");
        assert!(d.take_reports().is_empty());
    }

    #[test]
    fn unsynchronized_cross_thread_writes_are_flagged() {
        let (obs, d) = attached();
        // The detector models only the edges it is told about: a thread
        // join is real synchronization, but nothing reported it, so these
        // two writes must surface as a race.
        on_thread(&obs, |obs| on_write(obs, "cell/b"));
        on_write(&obs, "cell/b");
        let reports = d.take_reports();
        assert_eq!(reports.len(), 1, "expected exactly one race");
        assert_eq!(reports[0].cell, "cell/b");
        assert_eq!(reports[0].earlier.kind, AccessKind::Write);
        assert_eq!(reports[0].later.kind, AccessKind::Write);
    }

    #[test]
    fn lock_edges_order_cross_thread_writes() {
        let (obs, d) = attached();
        on_thread(&obs, |obs| {
            obs.lock_acquired(9, b"k");
            on_write(obs, "cell/c");
            obs.lock_released(9, b"k");
        });
        obs.lock_acquired(9, b"k");
        on_write(&obs, "cell/c");
        obs.lock_released(9, b"k");
        d.assert_race_free();
    }

    #[test]
    fn queue_edges_order_producer_and_consumer() {
        let (obs, d) = attached();
        on_write(&obs, "cell/d");
        obs.queue_enqueued("q");
        on_thread(&obs, |obs| {
            obs.queue_dequeued("q");
            on_read(obs, "cell/d");
            on_write(obs, "cell/d");
        });
        d.assert_race_free();
    }

    #[test]
    fn read_read_is_not_a_race() {
        let (obs, d) = attached();
        on_thread(&obs, |obs| on_read(obs, "cell/e"));
        on_read(&obs, "cell/e");
        assert!(d.take_reports().is_empty());
    }

    #[test]
    fn unordered_read_write_is_a_race() {
        let (obs, d) = attached();
        on_thread(&obs, |obs| on_read(obs, "cell/f"));
        on_write(&obs, "cell/f");
        let reports = d.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].earlier.kind, AccessKind::Read);
        assert_eq!(reports[0].later.kind, AccessKind::Write);
    }

    #[test]
    fn serialized_accesses_do_not_race_each_other() {
        let (obs, d) = attached();
        on_thread(&obs, |obs| serialized_write(obs, "reg/q/c"));
        serialized_write(&obs, "reg/q/c");
        serialized_read(&obs, "reg/q/c");
        assert!(d.take_reports().is_empty());
    }

    #[test]
    fn bypassing_the_store_latch_is_flagged() {
        let (obs, d) = attached();
        on_thread(&obs, |obs| serialized_write(obs, "reg/q/d"));
        // Direct write without the latch: unordered with the latched write.
        on_write(&obs, "reg/q/d");
        assert_eq!(d.take_reports().len(), 1);
    }

    #[test]
    fn transfer_edge_orders_inheritor() {
        let (obs, d) = attached();
        on_thread(&obs, |obs| {
            obs.lock_acquired(3, b"x");
            on_write(obs, "cell/g");
            // Parked without releasing: inheritance hands the lock over.
            obs.lock_released(3, b"x");
        });
        // The inheritor adopts the lock: an acquire on its thread.
        obs.lock_acquired(3, b"x");
        on_write(&obs, "cell/g");
        d.assert_race_free();
    }

    #[test]
    fn disabled_hooks_are_inert() {
        // No detector yet: nothing recorded, nothing panics.
        let obs = Obs::default();
        on_write(&obs, "cell/z");
        let d = Detector::attach(&obs);
        assert!(d.take_reports().is_empty());
    }
}
