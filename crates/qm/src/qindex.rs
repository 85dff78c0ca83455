//! In-memory index of each queue's committed, live elements.
//!
//! The paper's §10 "main memory database" observation cuts both ways: the
//! durable truth lives in the log + checkpoint, but the *working set* — which
//! elements are ready to dequeue, and in what order — is small and hot, so a
//! dequeue should not have to page the element keyspace to find its
//! candidate. [`QueueIndex`] keeps, per queue, an ordered map from element
//! key to eid. Because element keys embed `(0xFF - priority) ‖ seq`
//! ([`crate::keys::ord_suffix`]), iterating the map yields exactly the
//! dequeue order: highest priority first, FIFO within a priority.
//!
//! The index mirrors the **committed** state only. It is updated at the
//! queue manager's commit/abort boundaries (after the backing stores have
//! committed), never from inside an open transaction, so a reader can trust
//! that every entry refers to an element that was visible to
//! `scan_prefix(None, ..)` a moment ago. The element may still disappear
//! between candidate selection and lock acquisition — dequeue re-reads under
//! the element lock.
//!
//! ## Claim marks
//!
//! §10's relaxed ordering lets concurrent servers skip elements another
//! dequeuer holds. Skipping by try-locking each held element costs every
//! dequeuer one failed lock attempt per element ahead of it, so the index
//! arbitrates instead: each entry carries a `claimed` bit, and
//! [`QueueIndex::next_after`] with `claim` set returns the first *unclaimed*
//! entry and marks it, so no two claimants are offered the same entry. Three
//! invariants keep a mark from shadowing a live element:
//!
//! * the mark lives **in the entry** — every index mutation retires it
//!   (`remove` drops it; `insert`, `fixup`, `apply_mirror` and the recovery
//!   rebuild write a fresh unclaimed entry; `clear_queue` drops the lot);
//! * it is set only **under the queue's mutex**, in the same critical
//!   section that found the entry unclaimed;
//! * the **claimant clears it** ([`QueueIndex::unclaim`]) on every exit that
//!   did not take the element; a taken element stays marked until its
//!   transaction's commit removes the entry or its abort re-inserts it.
//!
//! Marks are advisory: the element lock and the re-read under it remain the
//! correctness backstop, and every reader other than a claiming `next_after`
//! (`snapshot`, `depth`, `total`, `candidates_after`) ignores them — a
//! claimed entry is still a committed, live element.
//!
//! ## Locking
//!
//! Queues are independent hot spots (§10 argues relaxed ordering exists so
//! concurrent servers don't serialize on shared queue state), so the index
//! gives each queue its own mutex under an outer `RwLock`'d map:
//!
//! * single-queue operations (insert, remove, depth, candidate paging) take
//!   the outer **read** lock plus that queue's mutex for their whole
//!   critical section — commits on different queues, and enqueue-commit vs
//!   dequeue-commit racing on the same queue, no longer share one mutex;
//! * cross-queue operations ([`QueueIndex::fixup`]'s error-queue moves) and
//!   whole-index reads (`snapshot`, `depth_accounting`, `total`,
//!   `clear_queue`) take the outer **write** lock, which excludes every
//!   single-queue writer wholesale — under it the per-queue mutexes are
//!   untouched via `Mutex::get_mut`, so no path ever holds two per-queue
//!   guards (the `qindex-queue` class in LOCKS.md; the rrq-analyze
//!   `lock-order` rule rejects a second same-class acquisition).
//!
//! The depth gauge still moves strictly inside the per-queue (or
//! whole-index) critical section, so the gauge and `total()` can never be
//! observed disagreeing — the PR 4 invariant pinned by
//! `crates/qm/tests/gauge_atomicity.rs`.
//!
//! On restart the index is rebuilt from a single scan of the stores
//! (volatile queues come back empty, so in practice this is the durable
//! store's `e/` prefix). `QueueManager::index_divergence` re-derives the
//! same structure from a fresh scan at any time and compares — the
//! crash-equivalence property test in `crates/sim` leans on it.

use crate::element::Eid;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// The queue-depth gauge. Updated strictly inside the per-queue (or
/// whole-index) critical section so the gauge and `total()` can never be
/// observed disagreeing — the abort disposition fix-up used to remove and
/// re-insert in two critical sections, and a concurrent `depth()`/gauge
/// reader saw the element missing from one but not the other (see
/// [`QueueIndex::fixup`]).
const DEPTH_GAUGE: &str = "qm.queue.depth";

/// One ready element: its eid and whether a skip-locked dequeuer has claimed
/// it (see the module docs, "Claim marks").
struct Entry {
    eid: Eid,
    claimed: bool,
}

impl Entry {
    fn unclaimed(eid: Eid) -> Self {
        Entry {
            eid,
            claimed: false,
        }
    }
}

type ReadyMap = BTreeMap<Vec<u8>, Entry>;
type Ready = HashMap<String, Mutex<ReadyMap>>;

/// Ordered ready-lists for every queue, keyed by element key.
#[derive(Default)]
pub struct QueueIndex {
    queues: RwLock<Ready>,
}

/// Acquire one queue's mutex, counting contended acquisitions (no-op cost —
/// one CAS — unless the lock is busy or a metrics session is installed).
fn enter_cell(cell: &Mutex<ReadyMap>) -> MutexGuard<'_, ReadyMap> {
    if let Some(g) = cell.try_lock() {
        return g;
    }
    rrq_obs::counter_inc("qm.qindex.shard.contended");
    let start = rrq_obs::now();
    let g = cell.lock();
    rrq_obs::observe(
        "qm.qindex.shard.acquire_wait_ticks",
        rrq_obs::now().saturating_sub(start),
    );
    g
}

/// Range start for an exclusive cursor.
fn lower_bound(after: Option<&[u8]>) -> Bound<&[u8]> {
    match after {
        Some(a) => Bound::Excluded(a),
        None => Bound::Unbounded,
    }
}

/// Insert under the outer write lock (cross-queue fix-up path).
fn insert_locked(g: &mut Ready, queue: &str, elem_key: Vec<u8>, eid: Eid) {
    if g.entry(queue.to_string())
        .or_default()
        .get_mut()
        .insert(elem_key, Entry::unclaimed(eid))
        .is_none()
    {
        rrq_obs::gauge_add(DEPTH_GAUGE, 1);
    }
}

/// Remove under the outer write lock (cross-queue fix-up path).
fn remove_locked(g: &mut Ready, queue: &str, elem_key: &[u8]) -> bool {
    let Some(m) = g.get_mut(queue) else {
        return false;
    };
    let hit = m.get_mut().remove(elem_key).is_some();
    if hit {
        rrq_obs::gauge_add(DEPTH_GAUGE, -1);
    }
    hit
}

impl QueueIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` inside `queue`'s own critical section: outer read lock +
    /// per-queue mutex, held together for the whole closure so whole-index
    /// readers (which take the outer write lock) serialize against it.
    /// `None` when the queue has no cell yet and `create` is false.
    fn with_ready<R>(
        &self,
        queue: &str,
        create: bool,
        f: impl FnOnce(&mut ReadyMap) -> R,
    ) -> Option<R> {
        {
            let g = self.queues.read();
            if let Some(cell) = g.get(queue) {
                let mut m = enter_cell(cell);
                return Some(f(&mut m));
            }
        }
        if !create {
            return None;
        }
        // First element ever seen for this queue: briefly take the outer
        // write lock to materialize its cell (rare — once per queue name).
        let mut g = self.queues.write();
        let cell = g.entry(queue.to_string()).or_default();
        Some(f(cell.get_mut()))
    }

    /// Record a committed element.
    pub fn insert(&self, queue: &str, elem_key: Vec<u8>, eid: Eid) {
        self.with_ready(queue, true, |m| {
            if m.insert(elem_key, Entry::unclaimed(eid)).is_none() {
                rrq_obs::gauge_add(DEPTH_GAUGE, 1);
            }
        });
    }

    /// Drop a committed element; `true` if it was present.
    pub fn remove(&self, queue: &str, elem_key: &[u8]) -> bool {
        self.with_ready(queue, false, |m| {
            let hit = m.remove(elem_key).is_some();
            if hit {
                rrq_obs::gauge_add(DEPTH_GAUGE, -1);
            }
            hit
        })
        .unwrap_or(false)
    }

    /// Batch mirror of one committed transaction: its enqueue inserts, then
    /// its dequeue removes — the index application at the commit boundary
    /// and at `close_epoch`. Insert-then-remove keeps an
    /// enqueue-then-dequeue of the same element within one transaction a
    /// net no-op. Durability contract (see LOCKS.md, Durability): callers
    /// mirror only transactions whose commit records are forced — a plain
    /// commit forces its own, `QueueManager::close_epoch` takes the deferred
    /// mirrors and then forces the log before applying them — so like the
    /// recovery rebuild this redoes already-durable effects.
    pub fn apply_mirror<'a>(
        &self,
        inserts: impl IntoIterator<Item = (&'a str, Vec<u8>, Eid)>,
        removes: impl IntoIterator<Item = (&'a str, &'a [u8])>,
    ) {
        for (queue, elem_key, eid) in inserts {
            self.insert(queue, elem_key, eid);
        }
        for (queue, elem_key) in removes {
            self.remove(queue, elem_key);
        }
    }

    /// Apply an abort-disposition fix-up as one atomic step: drop the
    /// element's old entry and add its new one (error-queue move, requeue,
    /// return) inside a single critical section, so index contents and the
    /// depth gauge move together and no observer sees the element half-way.
    /// May span two queues, hence the outer write lock rather than a pair of
    /// per-queue guards.
    pub fn fixup(
        &self,
        remove: Option<(&str, &[u8])>,
        insert: Option<(&str, Vec<u8>, Eid)>,
    ) -> bool {
        let mut g = self.queues.write();
        let hit = match remove {
            Some((q, k)) => remove_locked(&mut g, q, k),
            None => false,
        };
        if let Some((q, k, eid)) = insert {
            insert_locked(&mut g, q, k, eid);
        }
        hit
    }

    /// `(total(), depth-gauge reading)` observed in one critical section —
    /// they must always be equal while a metrics session is active and the
    /// whole index lifetime falls inside it.
    pub fn depth_accounting(&self) -> (usize, i64) {
        let mut g = self.queues.write();
        let total = g.values_mut().map(|c| c.get_mut().len()).sum();
        let gauge = rrq_obs::snapshot().gauge(DEPTH_GAUGE);
        (total, gauge)
    }

    /// Number of live elements in `queue` — O(1) in the queue count, no
    /// storage scan.
    pub fn depth(&self, queue: &str) -> usize {
        self.with_ready(queue, false, |m| m.len()).unwrap_or(0)
    }

    /// Forget a destroyed queue wholesale.
    pub fn clear_queue(&self, queue: &str) {
        let mut g = self.queues.write();
        if let Some(mut m) = g.remove(queue) {
            rrq_obs::gauge_add(DEPTH_GAUGE, -(m.get_mut().len() as i64));
        }
    }

    /// The first entry strictly after `after` in dequeue order. With `claim`,
    /// the first *unclaimed* one, marked claimed in the same critical section
    /// — the caller owns the mark and must [`Self::unclaim`] it unless it
    /// takes the element. One key clone, however deep the queue.
    pub fn next_after(
        &self,
        queue: &str,
        after: Option<&[u8]>,
        claim: bool,
    ) -> Option<(Vec<u8>, Eid)> {
        self.with_ready(queue, false, |m| {
            let (k, e) = m
                .range_mut::<[u8], _>((lower_bound(after), Bound::Unbounded))
                .find(|(_, e)| !(claim && e.claimed))?;
            e.claimed |= claim;
            Some((k.clone(), e.eid))
        })
        .flatten()
    }

    /// Clear the claim mark on `elem_key`, if the entry still exists.
    pub fn unclaim(&self, queue: &str, elem_key: &[u8]) {
        self.with_ready(queue, false, |m| {
            if let Some(e) = m.get_mut(elem_key) {
                e.claimed = false;
            }
        });
    }

    /// Number of entries currently claimed, across all queues. Zero at any
    /// quiescent point and after every restart.
    pub fn claimed(&self) -> usize {
        let mut g = self.queues.write();
        g.values_mut()
            .map(|c| c.get_mut().values().filter(|e| e.claimed).count())
            .sum()
    }

    /// Up to `limit` candidates in dequeue order, strictly after `after`
    /// (exclusive cursor, like the storage page scan).
    #[cfg(test)]
    fn candidates_after(
        &self,
        queue: &str,
        after: Option<&[u8]>,
        limit: usize,
    ) -> Vec<(Vec<u8>, Eid)> {
        self.with_ready(queue, false, |m| {
            m.range::<[u8], _>((lower_bound(after), Bound::Unbounded))
                .take(limit)
                .map(|(k, e)| (k.clone(), e.eid))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Full ordered dump, sorted by queue name — the comparison shape used
    /// by the equivalence check.
    pub fn snapshot(&self) -> BTreeMap<String, Vec<(Vec<u8>, Eid)>> {
        let mut g = self.queues.write();
        g.iter_mut()
            .filter_map(|(q, m)| {
                let m = m.get_mut();
                if m.is_empty() {
                    return None;
                }
                Some((
                    q.clone(),
                    m.iter().map(|(k, e)| (k.clone(), e.eid)).collect(),
                ))
            })
            .collect()
    }

    /// Total live elements across all queues.
    pub fn total(&self) -> usize {
        let mut g = self.queues.write();
        g.values_mut().map(|c| c.get_mut().len()).sum()
    }
}

impl Drop for QueueIndex {
    fn drop(&mut self) {
        // Retire this index's contribution to the process-wide depth gauge
        // (a crashed node's surviving elements re-enter through the rebuild
        // scan of its successor, so crash + restart nets zero for them).
        let mut g = self.queues.write();
        let total: usize = g.values_mut().map(|c| c.get_mut().len()).sum();
        rrq_obs::gauge_add(DEPTH_GAUGE, -(total as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use std::sync::Arc;

    #[test]
    fn candidates_come_back_in_dequeue_order() {
        let ix = QueueIndex::new();
        // Insert out of order: low priority first, then high.
        let lo = keys::element_key("q", 1, 10);
        let hi = keys::element_key("q", 9, 11);
        let lo2 = keys::element_key("q", 1, 12);
        ix.insert("q", lo.clone(), Eid(10));
        ix.insert("q", hi.clone(), Eid(11));
        ix.insert("q", lo2.clone(), Eid(12));
        let c = ix.candidates_after("q", None, 10);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].1, Eid(11), "high priority first");
        assert_eq!(c[1].1, Eid(10), "then FIFO within priority");
        assert_eq!(c[2].1, Eid(12));
    }

    #[test]
    fn cursor_is_exclusive() {
        let ix = QueueIndex::new();
        let a = keys::element_key("q", 0, 1);
        let b = keys::element_key("q", 0, 2);
        ix.insert("q", a.clone(), Eid(1));
        ix.insert("q", b.clone(), Eid(2));
        let c = ix.candidates_after("q", Some(&a), 10);
        assert_eq!(c, vec![(b, Eid(2))]);
    }

    #[test]
    fn depth_and_remove_track_contents() {
        let ix = QueueIndex::new();
        let k = keys::element_key("q", 0, 1);
        assert_eq!(ix.depth("q"), 0);
        ix.insert("q", k.clone(), Eid(1));
        assert_eq!(ix.depth("q"), 1);
        assert!(ix.remove("q", &k));
        assert!(!ix.remove("q", &k), "second remove is a miss");
        assert_eq!(ix.depth("q"), 0);
        assert!(ix.snapshot().is_empty(), "empty queues drop out");
    }

    #[test]
    fn clear_queue_forgets_everything() {
        let ix = QueueIndex::new();
        ix.insert("q", keys::element_key("q", 0, 1), Eid(1));
        ix.insert("q", keys::element_key("q", 0, 2), Eid(2));
        ix.insert("p", keys::element_key("p", 0, 3), Eid(3));
        ix.clear_queue("q");
        assert_eq!(ix.depth("q"), 0);
        assert_eq!(ix.total(), 1);
    }

    #[test]
    fn claims_skip_marked_entries_and_every_mutation_retires_the_mark() {
        let ix = QueueIndex::new();
        let [a, b, c] = [1, 2, 3].map(|i| keys::element_key("q", 0, i));
        for (i, k) in [&a, &b, &c].into_iter().enumerate() {
            ix.insert("q", k.clone(), Eid(i as u64));
        }
        assert_eq!(ix.next_after("q", None, true), Some((a.clone(), Eid(0))));
        assert_eq!(ix.next_after("q", None, true), Some((b.clone(), Eid(1))));
        assert_eq!(ix.claimed(), 2);
        // Readers that do not claim see every entry, marked or not.
        assert_eq!(ix.next_after("q", None, false), Some((a.clone(), Eid(0))));
        assert_eq!(ix.candidates_after("q", None, 10).len(), 3);
        assert_eq!(ix.depth("q"), 3);
        // The claimant clears its own mark ...
        ix.unclaim("q", &a);
        assert_eq!(ix.next_after("q", None, true), Some((a.clone(), Eid(0))));
        // ... a re-insert (the abort fix-up's `Returned` arm) writes a fresh
        // unclaimed entry under the same key ...
        ix.fixup(None, Some(("q", b.clone(), Eid(1))));
        assert_eq!(
            ix.next_after("q", Some(&a), true),
            Some((b.clone(), Eid(1)))
        );
        // ... and a remove drops the mark with the entry.
        assert!(ix.remove("q", &a));
        ix.insert("q", a.clone(), Eid(9));
        assert_eq!(ix.next_after("q", None, true), Some((a.clone(), Eid(9))));
        assert_eq!(ix.next_after("q", None, true), Some((c, Eid(2))));
        assert_eq!(ix.next_after("q", None, true), None, "all three claimed");
        ix.unclaim("q", b"no such key");
        ix.unclaim("no such queue", &a);
        assert_eq!(ix.claimed(), 3);
        ix.clear_queue("q");
        assert_eq!(ix.claimed(), 0);
    }

    #[test]
    fn concurrent_claimants_get_distinct_entries() {
        let ix = Arc::new(QueueIndex::new());
        for i in 0..32u64 {
            ix.insert("q", keys::element_key("q", 0, i), Eid(i));
        }
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ix = Arc::clone(&ix);
                std::thread::spawn(move || {
                    (0..4)
                        .filter_map(|_| ix.next_after("q", None, true))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(Vec<u8>, Eid)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 32, "every entry claimed exactly once");
        assert_eq!(ix.claimed(), 32);
    }

    #[test]
    fn parallel_queues_do_not_corrupt_totals() {
        // Hammer two disjoint queues from two threads while a third asks for
        // whole-index totals; every observation must be internally sane.
        let ix = Arc::new(QueueIndex::new());
        let mut handles = Vec::new();
        for q in ["qa", "qb"] {
            let ix = Arc::clone(&ix);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let k = keys::element_key(q, 0, i);
                    ix.insert(q, k.clone(), Eid(i));
                    assert!(ix.remove(q, &k));
                }
            }));
        }
        for _ in 0..200 {
            let t = ix.total();
            assert!(t <= 2, "at most one in-flight element per queue, saw {t}");
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ix.total(), 0);
    }
}
