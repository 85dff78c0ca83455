//! Happens-before race detection over instrumented shared state.
//!
//! Production crates report three kinds of synchronization edges:
//!
//! * lock edges — [`lock_acquired`] / [`lock_released`] from
//!   `rrq_txn::lock::LockManager` grant and release points (and
//!   [`lock_transferred`] for §5 lock inheritance);
//! * queue edges — [`queue_enqueued`] / [`queue_dequeued`] from the queue
//!   manager: a dequeue observes everything the enqueuing transaction did
//!   before enqueuing, which is exactly the paper's recoverable-request
//!   ordering;
//! * store-latch edges — [`serialized_read`] / [`serialized_write`] for
//!   records (like §4.3 registrations) that are serialized by the KV
//!   store's internal latch rather than by an explicit lock.
//!
//! Tracked cells ([`on_read`] / [`on_write`], or the [`Tracked`] wrapper)
//! are checked against the resulting happens-before order: two conflicting
//! accesses (at least one write) with neither ordered before the other are
//! reported with both access backtraces.
//!
//! The detector is off by default; a [`Session`] turns it on and serializes
//! concurrent detector tests in one process. Every hook starts with one
//! atomic load, and the cell hooks take their cell's name as a closure that
//! only a live session calls, so dormant instrumentation builds nothing.

use crate::clock::VectorClock;
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION: Mutex<()> = Mutex::new(());

fn detector() -> &'static Mutex<Detector> {
    static D: OnceLock<Mutex<Detector>> = OnceLock::new();
    D.get_or_init(|| Mutex::new(Detector::default()))
}

fn lock_poison_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

thread_local! {
    // (session epoch, thread slot) — a slot is only valid for the session
    // that allocated it.
    static SLOT: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

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
    /// Thread slot within the session.
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
struct Detector {
    epoch: u64,
    threads: Vec<VectorClock>,
    resources: HashMap<String, VectorClock>,
    cells: HashMap<String, CellState>,
    reports: Vec<RaceReport>,
}

impl Detector {
    fn reset(&mut self) {
        self.epoch += 1;
        self.threads.clear();
        self.resources.clear();
        self.cells.clear();
        self.reports.clear();
    }
}

/// Allocate (or look up) the calling thread's slot for the current epoch.
fn slot_of(d: &mut Detector) -> usize {
    SLOT.with(|c| match c.get() {
        Some((epoch, slot)) if epoch == d.epoch => slot,
        _ => {
            let slot = d.threads.len();
            let mut clock = VectorClock::new();
            clock.tick(slot);
            d.threads.push(clock);
            c.set(Some((d.epoch, slot)));
            slot
        }
    })
}

fn hooked(f: impl FnOnce(&mut Detector, usize)) {
    if !ENABLED.load(Ordering::Acquire) {
        return;
    }
    let mut d = lock_poison_ok(detector());
    let slot = slot_of(&mut d);
    f(&mut d, slot);
}

fn join_acquire(d: &mut Detector, slot: usize, resource: String) {
    if let Some(r) = d.resources.get(&resource) {
        let r = r.clone();
        d.threads[slot].join(&r);
    }
}

fn join_release(d: &mut Detector, slot: usize, resource: String) {
    let t = d.threads[slot].clone();
    d.resources.entry(resource).or_default().join(&t);
    d.threads[slot].tick(slot);
}

fn lock_resource(ns: u32, key: &[u8]) -> String {
    format!("lock:{ns}:{}", String::from_utf8_lossy(key))
}

/// The calling thread was granted the lock `(ns, key)`: it now observes
/// everything done under any previous holding of that lock.
pub fn lock_acquired(ns: u32, key: &[u8]) {
    hooked(|d, slot| join_acquire(d, slot, lock_resource(ns, key)));
}

/// The calling thread released the lock `(ns, key)`.
pub fn lock_released(ns: u32, key: &[u8]) {
    hooked(|d, slot| join_release(d, slot, lock_resource(ns, key)));
}

/// §5 lock inheritance: the calling thread (the inheriting transaction's
/// thread) adopts the lock without the holder ever releasing it.
pub fn lock_transferred(ns: u32, key: &[u8]) {
    hooked(|d, slot| join_acquire(d, slot, lock_resource(ns, key)));
}

/// Release-like edge: everything the enqueuing transaction did so far is
/// published to whoever later dequeues from `queue`.
pub fn queue_enqueued(queue: &str) {
    hooked(|d, slot| join_release(d, slot, format!("queue:{queue}")));
}

/// Acquire-like edge: the dequeuer observes all publishes into `queue`.
pub fn queue_dequeued(queue: &str) {
    hooked(|d, slot| join_acquire(d, slot, format!("queue:{queue}")));
}

fn record(d: &mut Detector, slot: usize, cell: &str, kind: AccessKind) {
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

/// Report a read of the tracked cell `cell` names. The closure runs only
/// while a session is live, so a call site on a hot path may `format!` its
/// cell name inside it for free.
pub fn on_read(cell: impl FnOnce() -> String) {
    hooked(|d, slot| record(d, slot, &cell(), AccessKind::Read));
}

/// Report a write of the tracked cell `cell` names; `cell` as in
/// [`on_read`].
pub fn on_write(cell: impl FnOnce() -> String) {
    hooked(|d, slot| record(d, slot, &cell(), AccessKind::Write));
}

/// A read of `cell` that the storage layer serializes internally (per-key
/// latch) without an explicit lock-manager lock — e.g. §4.3 registration
/// records. Accesses through this hook are mutually ordered; a direct
/// [`on_read`]/[`on_write`] on the same cell that bypasses the latch still
/// races and is reported.
pub fn serialized_read(cell: impl FnOnce() -> String) {
    hooked(|d, slot| serialized(d, slot, &cell(), AccessKind::Read));
}

/// Write counterpart of [`serialized_read`].
pub fn serialized_write(cell: impl FnOnce() -> String) {
    hooked(|d, slot| serialized(d, slot, &cell(), AccessKind::Write));
}

fn serialized(d: &mut Detector, slot: usize, cell: &str, kind: AccessKind) {
    let latch = format!("ser:{cell}");
    join_acquire(d, slot, latch.clone());
    record(d, slot, cell, kind);
    join_release(d, slot, latch);
}

/// A value with instrumented accesses. Reads and writes are reported to the
/// active [`Session`]'s detector under the cell's name; with no session
/// active the accessors are plain passthroughs.
#[derive(Debug)]
pub struct Tracked<T> {
    name: String,
    value: T,
}

impl<T> Tracked<T> {
    /// Wrap `value` under the tracked-cell name `name`.
    pub fn new(name: impl Into<String>, value: T) -> Self {
        Tracked {
            name: name.into(),
            value,
        }
    }

    /// The cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instrumented read access.
    pub fn read(&self) -> &T {
        on_read(|| self.name.clone());
        &self.value
    }

    /// Instrumented write access through interior mutability (the caller
    /// mutates via `&T`, e.g. an atomic or a mutex-wrapped value).
    pub fn write(&self) -> &T {
        on_write(|| self.name.clone());
        &self.value
    }

    /// Instrumented exclusive write access.
    pub fn get_mut(&mut self) -> &mut T {
        on_write(|| self.name.clone());
        &mut self.value
    }

    /// Unwrap without reporting an access.
    pub fn into_inner(self) -> T {
        self.value
    }
}

/// An active detector session. Construction enables the hooks and clears
/// all prior state; drop disables them. Sessions serialize on a process-
/// wide mutex so `cargo test`'s threaded runner cannot interleave two
/// detector tests.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

impl Session {
    /// Enable the detector (blocking until any other session ends).
    pub fn start() -> Session {
        let guard = lock_poison_ok(&SESSION);
        lock_poison_ok(detector()).reset();
        ENABLED.store(true, Ordering::SeqCst);
        Session { _guard: guard }
    }

    /// Drain the race reports accumulated so far.
    pub fn take_reports(&self) -> Vec<RaceReport> {
        std::mem::take(&mut lock_poison_ok(detector()).reports)
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

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // The tests name their cells with literals.
    fn on_read(cell: &str) {
        super::on_read(|| cell.to_string());
    }
    fn on_write(cell: &str) {
        super::on_write(|| cell.to_string());
    }
    fn serialized_read(cell: &str) {
        super::serialized_read(|| cell.to_string());
    }
    fn serialized_write(cell: &str) {
        super::serialized_write(|| cell.to_string());
    }

    #[test]
    fn a_dormant_hook_does_not_build_its_cell_name() {
        // Holding the session mutex without starting a session keeps every
        // other test's session, and with it `ENABLED`, out of the way.
        let _no_session = lock_poison_ok(&SESSION);
        let built = Cell::new(0);
        let name = || {
            built.set(built.get() + 1);
            String::from("cell/dormant")
        };
        super::on_read(name);
        super::on_write(name);
        super::serialized_read(name);
        super::serialized_write(name);
        assert_eq!(built.get(), 0);
    }

    #[test]
    fn a_live_hook_builds_its_cell_name_once() {
        let s = Session::start();
        let built = Cell::new(0);
        super::serialized_write(|| {
            built.set(built.get() + 1);
            String::from("cell/live")
        });
        assert_eq!(built.get(), 1);
        assert!(s.take_reports().is_empty());
    }

    #[test]
    fn same_thread_accesses_are_ordered() {
        let s = Session::start();
        on_write("cell/a");
        on_read("cell/a");
        on_write("cell/a");
        assert!(s.take_reports().is_empty());
    }

    #[test]
    fn unsynchronized_cross_thread_writes_are_flagged() {
        let s = Session::start();
        // The detector models only the edges it is told about: a thread
        // join is real synchronization, but nothing reported it, so these
        // two writes must surface as a race.
        std::thread::spawn(|| on_write("cell/b")).join().unwrap();
        on_write("cell/b");
        let reports = s.take_reports();
        assert_eq!(reports.len(), 1, "expected exactly one race");
        assert_eq!(reports[0].cell, "cell/b");
        assert_eq!(reports[0].earlier.kind, AccessKind::Write);
        assert_eq!(reports[0].later.kind, AccessKind::Write);
    }

    #[test]
    fn lock_edges_order_cross_thread_writes() {
        let s = Session::start();
        std::thread::spawn(|| {
            lock_acquired(9, b"k");
            on_write("cell/c");
            lock_released(9, b"k");
        })
        .join()
        .unwrap();
        lock_acquired(9, b"k");
        on_write("cell/c");
        lock_released(9, b"k");
        s.assert_race_free();
    }

    #[test]
    fn queue_edges_order_producer_and_consumer() {
        let s = Session::start();
        on_write("cell/d");
        queue_enqueued("q");
        std::thread::spawn(|| {
            queue_dequeued("q");
            on_read("cell/d");
            on_write("cell/d");
        })
        .join()
        .unwrap();
        s.assert_race_free();
    }

    #[test]
    fn read_read_is_not_a_race() {
        let s = Session::start();
        std::thread::spawn(|| on_read("cell/e")).join().unwrap();
        on_read("cell/e");
        assert!(s.take_reports().is_empty());
    }

    #[test]
    fn unordered_read_write_is_a_race() {
        let s = Session::start();
        std::thread::spawn(|| on_read("cell/f")).join().unwrap();
        on_write("cell/f");
        let reports = s.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].earlier.kind, AccessKind::Read);
        assert_eq!(reports[0].later.kind, AccessKind::Write);
    }

    #[test]
    fn serialized_accesses_do_not_race_each_other() {
        let s = Session::start();
        std::thread::spawn(|| serialized_write("reg/q/c"))
            .join()
            .unwrap();
        serialized_write("reg/q/c");
        serialized_read("reg/q/c");
        assert!(s.take_reports().is_empty());
    }

    #[test]
    fn bypassing_the_store_latch_is_flagged() {
        let s = Session::start();
        std::thread::spawn(|| serialized_write("reg/q/d"))
            .join()
            .unwrap();
        // Direct write without the latch: unordered with the latched write.
        on_write("reg/q/d");
        assert_eq!(s.take_reports().len(), 1);
    }

    #[test]
    fn tracked_wrapper_reports_accesses() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let s = Session::start();
        let cell = Arc::new(Tracked::new("cell/t", AtomicU64::new(0)));
        let c2 = Arc::clone(&cell);
        std::thread::spawn(move || c2.write().store(1, Ordering::SeqCst))
            .join()
            .unwrap();
        cell.write().store(2, Ordering::SeqCst);
        assert_eq!(s.take_reports().len(), 1);
        let cell = Arc::into_inner(cell).expect("no other refs remain");
        assert_eq!(cell.into_inner().into_inner(), 2);
    }

    #[test]
    fn transfer_edge_orders_inheritor() {
        let s = Session::start();
        std::thread::spawn(|| {
            lock_acquired(3, b"x");
            on_write("cell/g");
            // Parked without releasing: inheritance hands the lock over.
            lock_released(3, b"x");
        })
        .join()
        .unwrap();
        lock_transferred(3, b"x");
        on_write("cell/g");
        s.assert_race_free();
    }

    #[test]
    fn disabled_hooks_are_inert() {
        // No session: nothing recorded, nothing panics.
        on_write("cell/z");
        let s = Session::start();
        assert!(s.take_reports().is_empty());
    }
}
