//! Blocking dequeue support — the paper's "notify lock" (§10: "an extension
//! is needed to allow a transaction that Dequeues from an empty queue to
//! become blocked").
//!
//! Each queue carries a version, moved forward whenever elements may have
//! become available (an enqueue committed, or an aborted dequeue returned an
//! element). A blocked dequeuer samples the version, re-scans, and waits for
//! the version to move. A destroyed queue's wait state is dropped and its
//! waiters woken ([`QueueNotifier::forget`]).
//!
//! Wakeups are **counted, per-queue, one per newly available element**. The
//! first cut of this module shared one condvar across every queue and
//! `notify_all`'d it on any signal, so a commit adding one element to one
//! queue woke every blocked dequeuer in the process (E17 measured the
//! resulting thundering herd — the losers re-scan, skip, and go back to
//! sleep). Now each queue has its own condvar and a signal reporting *n* new
//! elements wakes at most *n* waiters: exactly the threads that can possibly
//! win an element re-scan, nobody else. Waking fewer than *n* would be a
//! livelock risk (two elements commit, one waiter wakes, the second element
//! sits until timeout); waking more is the herd again.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One queue's wait state. The condvar is `Arc`'d so a waiter can keep it
/// across the map rehash that an unrelated queue's first signal may cause.
#[derive(Default)]
struct Waitq {
    version: u64,
    waiters: usize,
    /// Wakeups issued and not yet taken, never more than `waiters`: a woken
    /// waiter leaves only with one, so a spurious wake waits again.
    tokens: usize,
    cv: Arc<Condvar>,
}

/// Per-queue availability versions with counted wakeups.
#[derive(Default)]
pub struct QueueNotifier {
    queues: Mutex<HashMap<String, Waitq>>,
    /// Every version is drawn from this clock, so a queue's wait state made
    /// again after [`QueueNotifier::forget`] starts past every version the
    /// old one had.
    clock: AtomicU64,
    /// Wakeups issued (notify_one calls targeting a registered waiter) —
    /// test hook pinning the no-thundering-herd contract.
    wakeups: AtomicU64,
}

impl QueueNotifier {
    /// New notifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version for `queue` (0 if never signalled).
    pub fn version(&self, queue: &str) -> u64 {
        self.queues.lock().get(queue).map_or(0, |w| w.version)
    }

    /// Signal that `queue` may have gained one element.
    pub fn signal(&self, queue: &str) {
        self.signal_n(queue, 1);
    }

    /// Signal that `queue` gained up to `newly` elements: bump the version
    /// once and wake `min(newly, waiters)` blocked dequeuers on that queue,
    /// a token each — never waiters on other queues, never the whole herd.
    pub fn signal_n(&self, queue: &str, newly: usize) {
        if newly == 0 {
            return;
        }
        let mut g = self.queues.lock();
        let w = self.waitq(&mut g, queue);
        w.version = self.clock.fetch_add(1, Ordering::AcqRel) + 1;
        let wake = newly.min(w.waiters - w.tokens);
        w.tokens += wake;
        for _ in 0..wake {
            w.cv.notify_one();
        }
        self.wakeups.fetch_add(wake as u64, Ordering::AcqRel);
    }

    /// Unless `queue`'s version already exceeds `seen`, block until this
    /// waiter takes a signal's token (`true`) or `timeout` elapses (then
    /// whether the version moved).
    pub fn wait_past(&self, queue: &str, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.queues.lock();
        let w = self.waitq(&mut g, queue);
        if w.version > seen {
            return true;
        }
        w.waiters += 1;
        let cv = Arc::clone(&w.cv);
        loop {
            let timed_out = cv.wait_until(&mut g, deadline).timed_out();
            // Re-borrow after the wait: the map may have rehashed, or the
            // queue been forgotten (its versions are all in the past then).
            let Some(w) = g.get_mut(queue).filter(|w| Arc::ptr_eq(&w.cv, &cv)) else {
                return true;
            };
            // Whoever leaves takes a token if there is one, so tokens never
            // outnumber waiters and a notify absorbed by a timeout is not lost.
            let took = w.tokens > 0;
            if took || timed_out {
                w.tokens -= usize::from(took);
                w.waiters -= 1;
                return took || w.version > seen;
            }
        }
    }

    /// `queue`'s wait state, made on first use: the name is copied then
    /// and only then.
    fn waitq<'g>(&self, g: &'g mut HashMap<String, Waitq>, queue: &str) -> &'g mut Waitq {
        if !g.contains_key(queue) {
            let version = self.clock.load(Ordering::Acquire);
            g.insert(
                queue.to_string(),
                Waitq {
                    version,
                    ..Waitq::default()
                },
            );
        }
        g.get_mut(queue).expect("inserted above")
    }

    /// Drop `queue`'s wait state — the queue was destroyed — and wake every
    /// dequeuer blocked on it.
    pub fn forget(&self, queue: &str) {
        let mut g = self.queues.lock();
        if let Some(w) = g.remove(queue) {
            w.cv.notify_all();
            self.wakeups.fetch_add(w.waiters as u64, Ordering::AcqRel);
        }
        self.clock.fetch_add(1, Ordering::AcqRel);
    }

    /// Total wakeups issued so far (test hook).
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Acquire)
    }

    /// Waiters currently blocked on `queue` (test hook).
    pub fn waiters(&self, queue: &str) -> usize {
        self.queues.lock().get(queue).map_or(0, |w| w.waiters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn signal_bumps_version() {
        let n = QueueNotifier::new();
        assert_eq!(n.version("q"), 0);
        n.signal("q");
        assert_eq!(n.version("q"), 1);
        assert_eq!(n.version("other"), 0);
    }

    #[test]
    fn wait_returns_immediately_when_version_already_past() {
        let n = QueueNotifier::new();
        n.signal("q");
        assert!(n.wait_past("q", 0, Duration::from_millis(1)));
    }

    #[test]
    fn wait_times_out() {
        let n = QueueNotifier::new();
        let t0 = Instant::now();
        assert!(!n.wait_past("q", 0, Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn waiter_woken_by_signal() {
        let n = Arc::new(QueueNotifier::new());
        let n2 = Arc::clone(&n);
        let h = thread::spawn(move || n2.wait_past("q", 0, Duration::from_secs(5)));
        while n.waiters("q") == 0 {
            thread::yield_now();
        }
        n.signal("q");
        assert!(h.join().unwrap());
    }

    #[test]
    fn signals_are_per_queue_but_wakeups_recheck() {
        let n = Arc::new(QueueNotifier::new());
        let n2 = Arc::clone(&n);
        let h = thread::spawn(move || n2.wait_past("a", 0, Duration::from_millis(200)));
        while n.waiters("a") == 0 {
            thread::yield_now();
        }
        n.signal("b"); // different queue: waiter on "a" is not even woken
        assert!(!h.join().unwrap());
        assert_eq!(n.wakeups(), 0, "no waiter on b ⇒ no wakeup issued");
    }

    #[test]
    fn forget_wakes_every_waiter_and_moves_past_every_version() {
        let n = Arc::new(QueueNotifier::new());
        n.signal_n("q", 3);
        let seen = n.version("q");
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || n.wait_past("q", seen, Duration::from_secs(5)))
            })
            .collect();
        while n.waiters("q") < 2 {
            thread::yield_now();
        }
        let t0 = Instant::now();
        n.forget("q");
        for h in handles {
            assert!(h.join().unwrap(), "woken, not timed out");
        }
        assert!(t0.elapsed() < Duration::from_secs(2));
        assert!(n.queues.lock().is_empty(), "the queue's state is gone");
        // A dequeuer that sampled the old version does not sleep on it.
        let t0 = Instant::now();
        assert!(n.wait_past("q", seen, Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    /// The wakeup-count pin: one new element among k blocked dequeuers on
    /// the same queue plus a bystander on another queue wakes exactly one
    /// thread — not the herd, not the bystander.
    #[test]
    fn one_element_wakes_exactly_one_of_many_waiters() {
        let n = Arc::new(QueueNotifier::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let n2 = Arc::clone(&n);
            handles.push(thread::spawn(move || {
                n2.wait_past("hot", 0, Duration::from_secs(5))
            }));
        }
        let n3 = Arc::clone(&n);
        let bystander = thread::spawn(move || n3.wait_past("cold", 0, Duration::from_millis(300)));
        while n.waiters("hot") < 4 || n.waiters("cold") < 1 {
            thread::yield_now();
        }
        n.signal_n("hot", 1);
        // Exactly one waiter leaves the wait; the other three stay parked.
        let t0 = Instant::now();
        while n.waiters("hot") != 3 {
            assert!(t0.elapsed() < Duration::from_secs(2), "winner never woke");
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(n.waiters("hot"), 3, "only one of four dequeuers woken");
        assert_eq!(n.wakeups(), 1, "one element ⇒ one wakeup issued");
        // Flush the rest; the version already moved so they all return true.
        n.signal_n("hot", 4);
        for h in handles {
            assert!(h.join().unwrap());
        }
        assert!(!bystander.join().unwrap(), "other queue's waiter untouched");
        assert_eq!(n.wakeups(), 4, "1 + min(4, 3 remaining waiters)");
    }

    /// Underflow edge: `signal_n` with zero parked waiters must not issue
    /// (or count) any wakeup, no matter how large `newly` is — the
    /// `min(newly, waiters)` clamp saturates at zero, it never wraps. The
    /// version still moves exactly once, so a dequeuer arriving *after* the
    /// burst returns immediately instead of parking.
    #[test]
    fn signal_n_with_no_waiters_issues_no_wakeups() {
        let n = QueueNotifier::new();
        n.signal_n("q", usize::MAX);
        assert_eq!(n.wakeups(), 0, "no parked waiter ⇒ no wakeup issued");
        assert_eq!(
            n.version("q"),
            1,
            "version bumps once per signal, not per element"
        );
        n.signal_n("q", 1_000_000);
        assert_eq!(n.wakeups(), 0);
        assert_eq!(n.version("q"), 2);
        // A later waiter sees the moved version without blocking.
        assert!(n.wait_past("q", 0, Duration::from_millis(1)));
        // And `newly: 0` is a pure no-op: no version bump, no wakeup.
        n.signal_n("q", 0);
        assert_eq!(n.version("q"), 2);
        assert_eq!(n.wakeups(), 0);
    }

    /// Overflow edge: `newly` far beyond the waiter count wakes exactly the
    /// parked waiters — `min` clamps to the live count, and the surplus is
    /// not banked against future waiters.
    #[test]
    fn signal_n_overflow_clamps_to_live_waiters() {
        let n = Arc::new(QueueNotifier::new());
        let mut handles = Vec::new();
        for _ in 0..2 {
            let n2 = Arc::clone(&n);
            handles.push(thread::spawn(move || {
                n2.wait_past("q", 0, Duration::from_secs(5))
            }));
        }
        while n.waiters("q") < 2 {
            thread::yield_now();
        }
        n.signal_n("q", usize::MAX);
        for h in handles {
            assert!(h.join().unwrap());
        }
        assert_eq!(n.wakeups(), 2, "wakeups clamp to the 2 parked waiters");
        // The huge surplus is not remembered: a fresh waiter on the same
        // queue (past the new version) parks and times out normally.
        assert!(!n.wait_past("q", n.version("q"), Duration::from_millis(30)));
        assert_eq!(n.wakeups(), 2);
    }

    /// Waiter-count churn during a wake: a signal's clamp reads the count
    /// at signal time, so waiters that leave (timeout) between the count
    /// read and the wake landing just absorb a harmless extra notify, and
    /// waiters that arrive after the signal see the bumped version and
    /// never park at all. The count itself must return to zero — no
    /// double-decrement from the timeout + wake race.
    #[test]
    fn waiter_count_survives_churn_during_wake() {
        let n = Arc::new(QueueNotifier::new());
        for round in 0..20u64 {
            let mut handles = Vec::new();
            for i in 0..4 {
                let n2 = Arc::clone(&n);
                // Mixed deadlines: some waiters time out right as the
                // signal's wakeups land, racing their `waiters -= 1` with
                // the winners'.
                let timeout = Duration::from_micros(200 + 300 * i);
                handles.push(thread::spawn(move || {
                    n2.wait_past("churn", 2 * round, timeout);
                }));
            }
            thread::sleep(Duration::from_micros(400));
            n.signal_n("churn", 2);
            n.signal_n("churn", 2);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                n.waiters("churn"),
                0,
                "round {round}: count must drain to 0"
            );
        }
    }

    /// A spurious wake is no wakeup: after `signal_n(q, 2)` among three
    /// waiters, a `notify_all` on the queue's condvar (what a spurious wake
    /// of every waiter looks like) still lets exactly two leave — the third
    /// finds no token and waits again, although the version moved.
    #[test]
    fn a_spurious_wake_without_a_token_waits_again() {
        let n = Arc::new(QueueNotifier::new());
        let left = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (n, left) = (Arc::clone(&n), Arc::clone(&left));
                thread::spawn(move || {
                    let woken = n.wait_past("q", 0, Duration::from_secs(10));
                    left.fetch_add(1, Ordering::AcqRel);
                    woken
                })
            })
            .collect();
        while n.waiters("q") < 3 {
            thread::yield_now();
        }
        n.signal_n("q", 2);
        let cv = Arc::clone(&n.queues.lock().get("q").unwrap().cv);
        cv.notify_all();
        let t0 = Instant::now();
        while left.load(Ordering::Acquire) < 2 {
            assert!(t0.elapsed() < Duration::from_secs(5), "winners never woke");
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(left.load(Ordering::Acquire), 2, "only two of three left");
        assert_eq!(n.waiters("q"), 1, "the third waits again");
        assert_eq!(n.wakeups(), 2);
        n.signal_n("q", 1);
        for h in handles {
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn signal_n_wakes_up_to_n_waiters() {
        let n = Arc::new(QueueNotifier::new());
        let mut handles = Vec::new();
        for _ in 0..3 {
            let n2 = Arc::clone(&n);
            handles.push(thread::spawn(move || {
                n2.wait_past("q", 0, Duration::from_secs(5))
            }));
        }
        while n.waiters("q") < 3 {
            thread::yield_now();
        }
        n.signal_n("q", 2);
        let t0 = Instant::now();
        while n.waiters("q") != 1 {
            assert!(t0.elapsed() < Duration::from_secs(2), "winners never woke");
            thread::yield_now();
        }
        assert_eq!(n.wakeups(), 2, "two new elements ⇒ two wakeups issued");
        n.signal_n("q", 1);
        for h in handles {
            assert!(h.join().unwrap());
        }
    }
}
