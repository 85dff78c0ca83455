//! Strict two-phase-locking lock manager.
//!
//! Locks are held until the owning transaction commits or aborts
//! ([`LockManager::unlock_all`]), which is what makes transaction executions
//! serializable (§1). Two extensions serve the paper directly:
//!
//! * [`LockManager::transfer_locks`] implements §6's lock *inheritance*: the
//!   locks of one transaction in a multi-transaction request are handed to
//!   the next transaction in the sequence instead of being released, making
//!   whole-request executions serializable.
//! * Deadlocks are detected with a waits-for graph at block time; the
//!   requester is the victim, so a server can abort (returning its request to
//!   the queue per §5) and retry.
//!
//! The table is hash-striped into [`LockManager::shard_count`] shards, each
//! with its own mutex + condvar and its own count of the keys each
//! transaction holds there, so concurrent servers working on unrelated keys no longer serialize on one
//! global mutex (§2's contention argument, measured by E18). The waits-for
//! graph stays behind one small separate lock — deadlock detection must see
//! edges across every shard to find cross-shard cycles, and victim selection
//! at block time is unchanged — which only a request that blocks, and a
//! release while somebody is blocked, ever take; the counters are atomics.
//! Lock order is strictly shard → meta, and no path ever holds two shard
//! guards at once. A release costs what the transaction held: each stripe
//! publishes how many transactions hold locks on it, and
//! [`LockManager::unlock_all`] enters only stripes where that is not zero. The
//! discipline is enforced twice: statically by `rrq-lint` (classes
//! `txn-stripe` / `txn-meta` in `LOCKS.md`, checked inter-procedurally
//! across the workspace) and dynamically by the [`crate::lockorder`]
//! debug-build checker — every [`StripeGuard`]/[`MetaGuard`] carries a
//! [`Held`] token that panics on any out-of-order acquisition a test or
//! explorer sweep reaches.

use crate::deadlock::WaitsForGraph;
use crate::error::{TxnError, TxnResult};
use crate::lockorder::{GuardClass, Held};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rrq_obs::Obs;
use rrq_storage::KeyHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Default stripe count for [`LockManager::new`]. Sixteen keeps the
/// birthday-collision rate for a handful of hot keys low without bloating
/// the per-manager footprint; `with_shards(1, ..)` restores the pre-striping
/// single-mutex behaviour for baselines and differential tests.
pub const DEFAULT_LOCK_SHARDS: usize = 16;

/// Lock compatibility modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared holders.
    Shared,
    /// Exclusive (write) — incompatible with everything else.
    Exclusive,
}

/// A lockable resource name: a namespace (table / queue id) plus a key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockKey {
    /// Namespace discriminator (e.g. one per queue or table).
    pub ns: u32,
    /// Key bytes within the namespace.
    pub key: Vec<u8>,
}

impl LockKey {
    /// Convenience constructor.
    pub fn new(ns: u32, key: impl Into<Vec<u8>>) -> Self {
        LockKey {
            ns,
            key: key.into(),
        }
    }
}

/// A key's hash, computed once per call with the store's [`KeyHasher`]: it
/// picks the stripe and names the key's entry. Two keys whose 64-bit hashes
/// collide share one lock — a false conflict now and then, never a missed
/// one (SQL Server locks a 6-byte hash of the key, with the same property).
fn key_hash(key: &LockKey) -> u64 {
    BuildHasherDefault::<KeyHasher>::default().hash_one(key)
}

/// The transactions holding one key, and their modes. A lone holder — every
/// exclusive lock, and most shared ones — is kept inline.
#[derive(Debug, Default)]
struct Holders {
    /// `None` only when `more` is empty too.
    one: Option<(u64, LockMode)>,
    more: Vec<(u64, LockMode)>,
}

impl Holders {
    fn iter(&self) -> impl Iterator<Item = &(u64, LockMode)> {
        self.one.iter().chain(&self.more)
    }

    fn get(&self, txn: u64) -> Option<LockMode> {
        self.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m)
    }

    /// Make `txn` a holder in `mode` (a holder already: change its mode).
    fn set(&mut self, txn: u64, mode: LockMode) {
        match self.one {
            Some((t, _)) if t != txn => match self.more.iter_mut().find(|(t, _)| *t == txn) {
                Some(held) => held.1 = mode,
                None => self.more.push((txn, mode)),
            },
            _ => self.one = Some((txn, mode)),
        }
    }

    fn remove(&mut self, txn: u64) -> Option<LockMode> {
        match self.one {
            Some((t, mode)) if t == txn => {
                self.one = self.more.pop();
                Some(mode)
            }
            _ => {
                let at = self.more.iter().position(|(t, _)| *t == txn)?;
                Some(self.more.swap_remove(at).1)
            }
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// The key, copied on its first lock (for the lock hooks of the handle).
    key: LockKey,
    holders: Holders,
    /// Arrival order of blocked requesters, for diagnostics only — grants
    /// are compatibility-driven, not strictly FIFO (see §10's discussion of
    /// relaxed ordering).
    waiters: VecDeque<u64>,
}

impl Entry {
    /// Nobody holds or waits for the key: the entry can go.
    fn is_free(&self) -> bool {
        self.holders.one.is_none() && self.waiters.is_empty()
    }
}

/// Counters for benchmarking lock behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Locks granted without blocking.
    pub immediate_grants: u64,
    /// Locks granted after at least one wait.
    pub waited_grants: u64,
    /// Deadlocks detected (victim aborted).
    pub deadlocks: u64,
    /// Lock waits that timed out.
    pub timeouts: u64,
}

/// One stripe of the lock table: the entries whose keys hash here, by
/// [`key_hash`], and how many of them each transaction holds. An entry lives
/// only while somebody holds or waits for its key, so a release walks the
/// few entries of the stripes the transaction holds on.
#[derive(Default)]
struct ShardState {
    table: HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>,
    /// Transaction → number of keys it holds on this stripe.
    held: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
}

impl ShardState {
    /// A blocked `txn` gives up on the key hashing to `h`.
    fn stop_waiting(&mut self, h: u64, txn: u64) {
        if let Some(e) = self.table.get_mut(&h) {
            e.waiters.retain(|w| *w != txn);
            if e.is_free() {
                self.table.remove(&h);
            }
        }
    }
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    /// `state.held.len()`: how many transactions hold locks on this stripe.
    /// Stored only under the stripe's mutex, after every change to `held`
    /// ([`Shard::publish_occupancy`]); read without it by
    /// [`LockManager::unlock_all`] to pass by a stripe nobody holds on. A
    /// transaction's own grants are stored before its release reads (same
    /// thread, or whatever handed the transaction to the releasing thread),
    /// and from its first grant on a stripe to its release there `held`
    /// never empties, so no later store can show it zero: a transaction
    /// never skips a stripe it holds on.
    occupied: AtomicUsize,
    /// The lock manager's handle, for the contended path of [`Shard::enter`].
    obs: Obs,
}

/// A stripe guard: the shard mutex plus the debug-build order token. Derefs
/// to [`ShardState`]; condvar waits go through [`StripeGuard::inner_mut`].
struct StripeGuard<'a> {
    _order: Held,
    inner: MutexGuard<'a, ShardState>,
}

impl<'a> StripeGuard<'a> {
    /// The raw mutex guard, for parking on the stripe's own condvar.
    fn inner_mut(&mut self) -> &mut MutexGuard<'a, ShardState> {
        &mut self.inner
    }
}

impl Deref for StripeGuard<'_> {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        &self.inner
    }
}

impl DerefMut for StripeGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        &mut self.inner
    }
}

/// The meta-lock guard, order-checked like [`StripeGuard`].
struct MetaGuard<'a> {
    _order: Held,
    inner: MutexGuard<'a, Meta>,
}

impl Deref for MetaGuard<'_> {
    type Target = Meta;
    fn deref(&self) -> &Meta {
        &self.inner
    }
}

impl DerefMut for MetaGuard<'_> {
    fn deref_mut(&mut self) -> &mut Meta {
        &mut self.inner
    }
}

impl Shard {
    /// Acquire this shard's mutex, counting contended acquisitions. The
    /// `try_lock` fast path costs one CAS; only the slow path touches the
    /// metrics (which are themselves no-ops on a dormant handle).
    /// The order token is taken *before* the mutex so a would-deadlock
    /// acquisition panics in debug builds even when the schedule would have
    /// let it slip through.
    fn enter(&self) -> StripeGuard<'_> {
        let order = Held::acquire(GuardClass::Stripe);
        if let Some(g) = self.state.try_lock() {
            return StripeGuard {
                _order: order,
                inner: g,
            };
        }
        self.obs.counter_inc("txn.lock.shard.contended");
        let start = self.obs.now();
        let g = self.state.lock();
        self.obs.observe(
            "txn.lock.shard.acquire_wait_ticks",
            self.obs.now().saturating_sub(start),
        );
        StripeGuard {
            _order: order,
            inner: g,
        }
    }

    /// Publish the number of holding transactions after one starts or stops
    /// holding here, under `g`, this stripe's guard (see [`Shard::occupied`]).
    fn publish_occupancy(&self, g: &StripeGuard<'_>) {
        self.occupied.store(g.held.len(), Ordering::Release);
    }
}

/// Global state shared by every shard: the waits-for graph (deadlock cycles
/// may span shards, so edges must live in one graph). Always acquired
/// *after* a shard guard, never before.
#[derive(Default)]
struct Meta {
    waits: WaitsForGraph,
}

/// [`LockStats`] as it is counted: one atomic per field, so a grant that
/// never waited adds one without taking any lock.
#[derive(Default)]
struct LockCounters {
    immediate_grants: AtomicU64,
    waited_grants: AtomicU64,
    deadlocks: AtomicU64,
    timeouts: AtomicU64,
}

pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::AcqRel);
}

/// The lock manager. One instance guards one node's resources; share it via
/// `Arc`.
pub struct LockManager {
    shards: Box<[Shard]>,
    meta: Mutex<Meta>,
    /// Transactions with edges in `meta.waits`, stored under `meta` after
    /// every change to the graph. A blocked request records its edges while
    /// it holds the stripe of the key it wants, so a holder that releases
    /// that stripe afterwards reads the count the waiter stored; zero means
    /// the graph is empty and a release has nothing to clear from it.
    waiting: AtomicUsize,
    counters: LockCounters,
    obs: Obs,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::with_shards(DEFAULT_LOCK_SHARDS, Obs::default())
    }
}

impl LockManager {
    /// Create an empty lock manager with the default stripe count and a
    /// dormant observation handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty lock manager striped `n` ways (`n >= 1`), reporting
    /// to `obs`. One shard reproduces the pre-striping global-mutex
    /// behaviour exactly.
    pub fn with_shards(n: usize, obs: Obs) -> Self {
        let n = n.max(1);
        let shards = (0..n)
            .map(|_| Shard {
                state: Mutex::new(ShardState::default()),
                cv: Condvar::new(),
                occupied: AtomicUsize::new(0),
                obs: obs.clone(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockManager {
            shards,
            meta: Mutex::new(Meta::default()),
            waiting: AtomicUsize::new(0),
            counters: LockCounters::default(),
            obs,
        }
    }

    /// The handle this manager (and the transaction manager built on it)
    /// reports to.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stripe a key hashes to; stable across runs (unlike `RandomState`).
    /// Exposed so tests can construct cross-shard scenarios
    /// deterministically.
    pub fn shard_id(&self, key: &LockKey) -> usize {
        self.stripe_of(key_hash(key))
    }

    fn stripe_of(&self, h: u64) -> usize {
        (h % self.shards.len() as u64) as usize
    }

    /// Acquire the meta lock (the waits-for graph), order-checked: legal
    /// with a stripe guard or nothing held, never under another meta guard.
    /// This accessor is also the `txn-meta` acquisition pattern the static
    /// analyzer classifies (see `LOCKS.md`).
    fn meta(&self) -> MetaGuard<'_> {
        let order = Held::acquire(GuardClass::Meta);
        MetaGuard {
            _order: order,
            inner: self.meta.lock(),
        }
    }

    /// Publish the graph's size after changing it (see
    /// [`LockManager::waiting`]); called with the meta guard held.
    fn publish_waiting(&self, m: &MetaGuard<'_>) {
        self.waiting
            .store(m.waits.waiter_count(), Ordering::Release);
    }

    /// Acquire `key` in `mode` for `txn`, blocking up to `timeout`.
    ///
    /// Re-acquiring a held lock is a no-op; requesting `Exclusive` while
    /// holding `Shared` upgrades (waiting for other readers to drain).
    /// Returns [`TxnError::Deadlock`] when blocking would close a waits-for
    /// cycle, [`TxnError::LockTimeout`] when the deadline passes.
    pub fn lock(
        &self,
        txn: u64,
        key: &LockKey,
        mode: LockMode,
        timeout: Duration,
    ) -> TxnResult<()> {
        let deadline = Instant::now() + timeout;
        let h = key_hash(key);
        let shard = &self.shards[self.stripe_of(h)];
        let mut g = shard.enter();
        let mut waited = false;
        let mut enqueued = false;
        let mut wait_start: Option<u64> = None;
        loop {
            // The key bytes are copied on first contact only; wakeups re-run
            // this loop and must not re-allocate.
            let entry = g.table.entry(h).or_insert_with(|| Entry {
                key: key.clone(),
                holders: Holders::default(),
                waiters: VecDeque::new(),
            });
            let held_mode = entry.holders.get(txn);
            let grantable = match held_mode {
                Some(LockMode::Exclusive) => true,
                Some(LockMode::Shared) if mode == LockMode::Shared => true,
                Some(LockMode::Shared) => entry.holders.more.is_empty(), // upgrade
                None => match mode {
                    LockMode::Shared => entry.holders.iter().all(|(_, m)| *m == LockMode::Shared),
                    LockMode::Exclusive => entry.holders.one.is_none(),
                },
            };
            if grantable {
                let new_mode = match (held_mode, mode) {
                    (Some(LockMode::Exclusive), _) | (_, LockMode::Exclusive) => {
                        LockMode::Exclusive
                    }
                    _ => LockMode::Shared,
                };
                entry.holders.set(txn, new_mode);
                if enqueued {
                    entry.waiters.retain(|w| *w != txn);
                }
                if held_mode.is_none() {
                    *g.held.entry(txn).or_default() += 1;
                    shard.publish_occupancy(&g);
                }
                if waited {
                    {
                        let mut m = self.meta();
                        m.waits.clear_waiter(txn);
                        self.publish_waiting(&m);
                    }
                    bump(&self.counters.waited_grants);
                    self.obs.counter_inc("txn.lock.waited_grants");
                    if let Some(start) = wait_start {
                        self.obs
                            .observe("txn.lock.wait_ticks", self.obs.now().saturating_sub(start));
                    }
                } else {
                    bump(&self.counters.immediate_grants);
                    self.obs.counter_inc("txn.lock.immediate_grants");
                }
                self.obs.lock_acquired(key.ns, &key.key);
                return Ok(());
            }

            // Block: (re)record waits-for edges against current conflicters.
            let conflicters: Vec<u64> = entry
                .holders
                .iter()
                .map(|&(t, _)| t)
                .filter(|t| *t != txn)
                .collect();
            if !enqueued {
                entry.waiters.push_back(txn);
                enqueued = true;
            }
            let deadlocked = {
                let mut m = self.meta();
                m.waits.clear_waiter(txn);
                for h in &conflicters {
                    m.waits.add_edge(txn, *h);
                }
                let cycle = m.waits.has_cycle_through(txn);
                if cycle {
                    m.waits.clear_waiter(txn);
                }
                self.publish_waiting(&m);
                cycle
            };
            if deadlocked {
                bump(&self.counters.deadlocks);
                g.stop_waiting(h, txn);
                self.obs.counter_inc("txn.lock.deadlock_victims");
                return Err(TxnError::Deadlock { victim: txn });
            }

            waited = true;
            if wait_start.is_none() {
                wait_start = Some(self.obs.now());
            }
            if Instant::now() >= deadline {
                return self.wait_timed_out(&mut g, txn, h);
            }
            let result = shard.cv.wait_until(g.inner_mut(), deadline);
            if result.timed_out() {
                return self.wait_timed_out(&mut g, txn, h);
            }
        }
    }

    /// Shared timeout cleanup: drop the waiter record from the shard and the
    /// waits-for graph, count the timeout. Called with the shard guard held.
    fn wait_timed_out(&self, g: &mut StripeGuard<'_>, txn: u64, h: u64) -> TxnResult<()> {
        {
            let mut m = self.meta();
            m.waits.clear_waiter(txn);
            self.publish_waiting(&m);
        }
        bump(&self.counters.timeouts);
        g.stop_waiting(h, txn);
        self.obs.counter_inc("txn.lock.timeouts");
        Err(TxnError::LockTimeout)
    }

    /// Non-blocking acquire; `Err(LockTimeout)` when unavailable now.
    pub fn try_lock(&self, txn: u64, key: &LockKey, mode: LockMode) -> TxnResult<()> {
        self.lock(txn, key, mode, Duration::ZERO)
    }

    /// Release every lock held by `txn` and wake waiters.
    ///
    /// Shards are visited one at a time (never two guards at once); only
    /// shards that actually held something for `txn` get a wakeup, so with
    /// striping a commit no longer thunders every waiter in the process.
    /// A stripe on which no transaction holds anything is not entered at
    /// all ([`Shard::occupied`]), and the waits-for graph is taken only
    /// when it has edges ([`LockManager::waiting`], read after the last
    /// stripe): a transaction alone in the table pays for the stripes it
    /// locked on and nothing else.
    pub fn unlock_all(&self, txn: u64) {
        for shard in self.shards.iter() {
            if shard.occupied.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut g = shard.enter();
            if g.held.remove(&txn).is_none() {
                continue;
            }
            shard.publish_occupancy(&g);
            g.table.retain(|_, e| {
                if e.holders.remove(txn).is_some() {
                    self.obs.lock_released(e.key.ns, &e.key.key);
                }
                !e.is_free()
            });
            shard.cv.notify_all();
        }
        if self.waiting.load(Ordering::Acquire) != 0 {
            let mut m = self.meta();
            m.waits.clear_waiter(txn);
            m.waits.clear_target(txn);
            self.publish_waiting(&m);
        }
    }

    /// §6 lock inheritance: transfer every lock held by `from` to `to`
    /// (merging with `to`'s own holdings at the stronger mode). Within each
    /// shard the handoff is atomic, so a transferred resource is never
    /// observably free in between.
    pub fn transfer_locks(&self, from: u64, to: u64) {
        if from == to {
            return;
        }
        for shard in self.shards.iter() {
            if shard.occupied.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut g = shard.enter();
            if g.held.remove(&from).is_none() {
                continue;
            }
            let mut gained = 0;
            for e in g.table.values_mut() {
                let Some(mode) = e.holders.remove(from) else {
                    continue;
                };
                let merged = match (e.holders.get(to), mode) {
                    (None, _) => {
                        gained += 1;
                        mode
                    }
                    (Some(LockMode::Exclusive), _) | (_, LockMode::Exclusive) => {
                        LockMode::Exclusive
                    }
                    _ => LockMode::Shared,
                };
                e.holders.set(to, merged);
                // Happens-before: the inheriting transaction's thread (the
                // caller) acquires each lock without `from` ever releasing
                // it.
                self.obs.lock_acquired(e.key.ns, &e.key.key);
            }
            if gained > 0 {
                *g.held.entry(to).or_default() += gained;
            }
            shard.publish_occupancy(&g);
            // Wake this shard's waiters so their block-time edge refresh
            // re-targets `to` (PR 1 lost-wakeup audit; transfer_wakeup.rs).
            shard.cv.notify_all();
        }
        if self.waiting.load(Ordering::Acquire) != 0 {
            let mut m = self.meta();
            m.waits.clear_target(from);
            self.publish_waiting(&m);
        }
    }

    /// Number of locks currently held by `txn`.
    pub fn held_count(&self, txn: u64) -> usize {
        let mut total = 0;
        for shard in self.shards.iter() {
            let g = shard.enter();
            total += g.held.get(&txn).copied().unwrap_or(0);
        }
        total
    }

    /// True when `txn` holds `key` at least at `mode`.
    pub fn holds(&self, txn: u64, key: &LockKey, mode: LockMode) -> bool {
        let h = key_hash(key);
        let g = self.shards[self.stripe_of(h)].enter();
        match g.table.get(&h).and_then(|e| e.holders.get(txn)) {
            Some(LockMode::Exclusive) => true,
            Some(LockMode::Shared) => mode == LockMode::Shared,
            None => false,
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> LockStats {
        let c = &self.counters;
        LockStats {
            immediate_grants: c.immediate_grants.load(Ordering::Acquire),
            waited_grants: c.waited_grants.load(Ordering::Acquire),
            deadlocks: c.deadlocks.load(Ordering::Acquire),
            timeouts: c.timeouts.load(Ordering::Acquire),
        }
    }

    /// How many transactions hold locks on each stripe, as published to
    /// [`LockManager::unlock_all`]. All zero whenever no transaction holds a
    /// lock.
    pub fn stripe_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.occupied.load(Ordering::Acquire))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    const T: Duration = Duration::from_secs(5);

    fn key(k: &[u8]) -> LockKey {
        LockKey::new(0, k)
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock(1, &key(b"a"), LockMode::Shared, T).unwrap();
        lm.lock(2, &key(b"a"), LockMode::Shared, T).unwrap();
        assert!(lm.holds(1, &key(b"a"), LockMode::Shared));
        assert!(lm.holds(2, &key(b"a"), LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes() {
        let lm = LockManager::new();
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        assert_eq!(
            lm.try_lock(2, &key(b"a"), LockMode::Shared),
            Err(TxnError::LockTimeout)
        );
        assert_eq!(
            lm.try_lock(2, &key(b"a"), LockMode::Exclusive),
            Err(TxnError::LockTimeout)
        );
        lm.unlock_all(1);
        assert!(lm.try_lock(2, &key(b"a"), LockMode::Exclusive).is_ok());
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::new();
        lm.lock(1, &key(b"a"), LockMode::Shared, T).unwrap();
        lm.lock(1, &key(b"a"), LockMode::Shared, T).unwrap();
        // Sole reader upgrades immediately.
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        assert!(lm.holds(1, &key(b"a"), LockMode::Exclusive));
        // X re-request is a no-op; S while holding X stays X.
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        lm.lock(1, &key(b"a"), LockMode::Shared, T).unwrap();
        assert!(lm.holds(1, &key(b"a"), LockMode::Exclusive));
        assert_eq!(lm.held_count(1), 1);
    }

    #[test]
    fn blocked_writer_proceeds_after_release() {
        let lm = Arc::new(LockManager::new());
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.lock(2, &key(b"a"), LockMode::Exclusive, T));
        thread::sleep(Duration::from_millis(20));
        lm.unlock_all(1);
        h.join().unwrap().unwrap();
        assert!(lm.holds(2, &key(b"a"), LockMode::Exclusive));
        assert_eq!(lm.stats().waited_grants, 1);
    }

    #[test]
    fn deadlock_detected_and_victim_is_requester() {
        let lm = Arc::new(LockManager::new());
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        lm.lock(2, &key(b"b"), LockMode::Exclusive, T).unwrap();
        // 1 blocks on b (held by 2).
        let lm1 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            let r = lm1.lock(1, &key(b"b"), LockMode::Exclusive, T);
            // 1 eventually gets b after 2 is killed as the deadlock victim.
            r
        });
        thread::sleep(Duration::from_millis(30));
        // 2 blocks on a (held by 1) → cycle → 2 is the victim.
        let r = lm.lock(2, &key(b"a"), LockMode::Exclusive, T);
        assert_eq!(r, Err(TxnError::Deadlock { victim: 2 }));
        lm.unlock_all(2);
        h.join().unwrap().unwrap();
        assert_eq!(lm.stats().deadlocks, 1);
    }

    #[test]
    fn upgrade_deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock(1, &key(b"a"), LockMode::Shared, T).unwrap();
        lm.lock(2, &key(b"a"), LockMode::Shared, T).unwrap();
        let lm1 = Arc::clone(&lm);
        let h = thread::spawn(move || lm1.lock(1, &key(b"a"), LockMode::Exclusive, T));
        thread::sleep(Duration::from_millis(30));
        let r = lm.lock(2, &key(b"a"), LockMode::Exclusive, T);
        assert_eq!(r, Err(TxnError::Deadlock { victim: 2 }));
        lm.unlock_all(2);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn timeout_expires() {
        let lm = LockManager::new();
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        let r = lm.lock(2, &key(b"a"), LockMode::Shared, Duration::from_millis(30));
        assert_eq!(r, Err(TxnError::LockTimeout));
        assert_eq!(lm.stats().timeouts, 1);
    }

    #[test]
    fn transfer_locks_inherits_holdings() {
        let lm = LockManager::new();
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        lm.lock(1, &key(b"b"), LockMode::Shared, T).unwrap();
        lm.transfer_locks(1, 2);
        assert_eq!(lm.held_count(1), 0);
        assert_eq!(lm.held_count(2), 2);
        assert!(lm.holds(2, &key(b"a"), LockMode::Exclusive));
        // The resource never became free in between.
        assert_eq!(
            lm.try_lock(3, &key(b"a"), LockMode::Shared),
            Err(TxnError::LockTimeout)
        );
        lm.unlock_all(2);
        assert!(lm.try_lock(3, &key(b"a"), LockMode::Shared).is_ok());
    }

    #[test]
    fn transfer_merges_modes() {
        let lm = LockManager::new();
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        // 2 can't hold anything on a yet; give 2 a shared elsewhere.
        lm.lock(2, &key(b"b"), LockMode::Shared, T).unwrap();
        lm.transfer_locks(1, 2);
        assert!(lm.holds(2, &key(b"a"), LockMode::Exclusive));
        assert!(lm.holds(2, &key(b"b"), LockMode::Shared));
    }

    #[test]
    fn namespaces_are_disjoint() {
        let lm = LockManager::new();
        lm.lock(1, &LockKey::new(1, "k"), LockMode::Exclusive, T)
            .unwrap();
        assert!(lm
            .try_lock(2, &LockKey::new(2, "k"), LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn unlock_all_without_locks_is_harmless() {
        let lm = LockManager::new();
        lm.unlock_all(42);
        assert_eq!(lm.held_count(42), 0);
    }

    /// `want` keys of namespace 0 that hash to `want` different stripes.
    fn keys_on_distinct_stripes(lm: &LockManager, want: usize) -> Vec<LockKey> {
        let mut seen = HashSet::new();
        (0..=255u8)
            .map(|b| key(&[b]))
            .filter(|k| seen.insert(lm.shard_id(k)))
            .take(want)
            .collect()
    }

    #[test]
    fn unlock_all_enters_only_the_stripes_the_transaction_holds_on() {
        let lm = Arc::new(LockManager::new());
        let held = keys_on_distinct_stripes(&lm, 3);
        assert_eq!(held.len(), 3);
        for k in &held {
            lm.lock(1, k, LockMode::Exclusive, T).unwrap();
        }
        let on: HashSet<usize> = held.iter().map(|k| lm.shard_id(k)).collect();
        // Every other stripe's mutex, and the waits-for graph's, is taken
        // by this thread for the length of the release: entering any of
        // them would hang it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        {
            let _meta = lm.meta.lock();
            let _others: Vec<_> = (0..lm.shard_count())
                .filter(|i| !on.contains(i))
                .map(|i| lm.shards[i].state.lock())
                .collect();
            let releaser = Arc::clone(&lm);
            let h = thread::spawn(move || {
                releaser.unlock_all(1);
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(T)
                .expect("unlock_all entered a stripe it held nothing on, or the graph");
            h.join().unwrap();
        }
        assert_eq!(lm.held_count(1), 0);
        assert_eq!(lm.stripe_occupancy(), vec![0; lm.shard_count()]);
        for k in &held {
            assert!(lm.try_lock(2, k, LockMode::Exclusive).is_ok());
        }
    }

    #[test]
    fn a_release_clears_the_graph_when_somebody_waits() {
        let lm = Arc::new(LockManager::new());
        lm.lock(1, &key(b"a"), LockMode::Exclusive, T).unwrap();
        let waiter = {
            let lm = Arc::clone(&lm);
            thread::spawn(move || lm.lock(2, &key(b"a"), LockMode::Exclusive, T))
        };
        // The waiter's edge is in the graph once the count says so.
        while lm.waiting.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }
        lm.unlock_all(1);
        waiter.join().unwrap().unwrap();
        assert_eq!(lm.meta.lock().waits.waiter_count(), 0);
        assert_eq!(lm.waiting.load(Ordering::Acquire), 0);
        lm.unlock_all(2);
        assert_eq!(lm.stripe_occupancy(), vec![0; lm.shard_count()]);
    }

    #[test]
    fn shard_ids_are_stable_and_in_range() {
        let lm = LockManager::with_shards(8, Obs::default());
        assert_eq!(lm.shard_count(), 8);
        let mut seen = HashSet::new();
        for i in 0..64u8 {
            let k = LockKey::new(0, vec![i]);
            let s = lm.shard_id(&k);
            assert!(s < 8);
            assert_eq!(s, lm.shard_id(&k));
            seen.insert(s);
        }
        // 64 distinct keys must not all land on one stripe.
        assert!(seen.len() > 1);
        // shards=1 degenerates to a single stripe.
        let single = LockManager::with_shards(1, Obs::default());
        assert_eq!(single.shard_id(&LockKey::new(9, "zz")), 0);
    }

    /// Holders and modes per key, as a sequential model of the table.
    #[derive(Default)]
    struct Model(std::collections::BTreeMap<LockKey, std::collections::BTreeMap<u64, LockMode>>);

    impl Model {
        fn lock(&mut self, txn: u64, key: &LockKey, mode: LockMode) -> bool {
            let holders = self.0.entry(key.clone()).or_default();
            let others = holders.iter().filter(|(t, _)| **t != txn);
            let grantable = match mode {
                LockMode::Shared => others.clone().all(|(_, m)| *m == LockMode::Shared),
                LockMode::Exclusive => others.count() == 0,
            };
            let held = holders.get(&txn).copied();
            if grantable {
                let stronger = held == Some(LockMode::Exclusive) || mode == LockMode::Exclusive;
                let mode = if stronger {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                holders.insert(txn, mode);
            }
            if holders.is_empty() {
                self.0.remove(key);
            }
            grantable || held == Some(LockMode::Exclusive)
        }

        fn unlock_all(&mut self, txn: u64) {
            for holders in self.0.values_mut() {
                holders.remove(&txn);
            }
            self.0.retain(|_, holders| !holders.is_empty());
        }

        fn transfer(&mut self, from: u64, to: u64) {
            if from == to {
                return;
            }
            for holders in self.0.values_mut() {
                if let Some(mode) = holders.remove(&from) {
                    let held = holders.get(&to).copied();
                    let stronger = held == Some(LockMode::Exclusive) || mode == LockMode::Exclusive;
                    let mode = if stronger {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    holders.insert(to, mode);
                }
            }
        }

        fn held_count(&self, txn: u64) -> usize {
            self.0.values().filter(|h| h.contains_key(&txn)).count()
        }

        fn mode(&self, txn: u64, key: &LockKey) -> Option<LockMode> {
            self.0.get(key).and_then(|h| h.get(&txn)).copied()
        }
    }

    /// Entries in the table, over every stripe.
    fn entries(lm: &LockManager) -> usize {
        lm.shards.iter().map(|s| s.state.lock().table.len()).sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// `lock`, `try_lock`, upgrades, `unlock_all` and `transfer_locks`
        /// from four transactions over six keys, on one and on sixteen
        /// stripes, grant what the model grants; `held_count` and `holds`
        /// agree with it after every step, and a key nobody holds has no
        /// table entry.
        #[test]
        fn the_table_matches_a_sequential_model(
            steps in proptest::collection::vec(
                (0..5u8, 1..5u64, 0..6u8, proptest::prelude::any::<bool>()),
                1..60,
            ),
        ) {
            for stripes in [1, 16] {
                let lm = LockManager::with_shards(stripes, Obs::default());
                let mut model = Model::default();
                let keys: Vec<LockKey> = (0..6u8).map(|k| LockKey::new(u32::from(k % 2), vec![k / 2])).collect();
                for &(op, txn, k, exclusive) in &steps {
                    let key = &keys[usize::from(k)];
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    match op {
                        0 | 1 => {
                            let got = if op == 0 {
                                lm.lock(txn, key, mode, Duration::ZERO)
                            } else {
                                lm.try_lock(txn, key, mode)
                            };
                            let want = model.lock(txn, key, mode);
                            proptest::prop_assert_eq!(got.is_ok(), want, "{:?} {} {:?}", op, txn, key);
                            if !want {
                                proptest::prop_assert_eq!(got, Err(TxnError::LockTimeout));
                            }
                        }
                        2 => {
                            // An upgrade attempt: shared first, then exclusive.
                            let got = lm.try_lock(txn, key, LockMode::Shared).is_ok()
                                && lm.try_lock(txn, key, LockMode::Exclusive).is_ok();
                            let want = model.lock(txn, key, LockMode::Shared)
                                && model.lock(txn, key, LockMode::Exclusive);
                            proptest::prop_assert_eq!(got, want);
                        }
                        3 => {
                            lm.unlock_all(txn);
                            model.unlock_all(txn);
                        }
                        _ => {
                            let to = u64::from(k % 4) + 1;
                            lm.transfer_locks(txn, to);
                            model.transfer(txn, to);
                        }
                    }
                    for t in 1..5 {
                        proptest::prop_assert_eq!(lm.held_count(t), model.held_count(t));
                        for key in &keys {
                            let mode = model.mode(t, key);
                            proptest::prop_assert_eq!(
                                lm.holds(t, key, LockMode::Shared),
                                mode.is_some()
                            );
                            proptest::prop_assert_eq!(
                                lm.holds(t, key, LockMode::Exclusive),
                                mode == Some(LockMode::Exclusive)
                            );
                        }
                    }
                    proptest::prop_assert_eq!(entries(&lm), model.0.len(), "entries of {} stripes", stripes);
                }
                for t in 1..5 {
                    lm.unlock_all(t);
                }
                proptest::prop_assert_eq!(entries(&lm), 0);
                proptest::prop_assert_eq!(lm.stripe_occupancy(), vec![0; stripes]);
            }
        }
    }

    #[test]
    fn many_threads_stress_single_key() {
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for i in 0..50 {
                    let txn = t * 1000 + i;
                    lm.lock(txn, &key(b"hot"), LockMode::Exclusive, T).unwrap();
                    {
                        let mut c = counter.lock();
                        *c += 1;
                    }
                    lm.unlock_all(txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }

    #[test]
    fn many_threads_stress_across_shards() {
        // Same stress as above but over many keys, so the striped fast path
        // (different shards, no meta contention beyond counters) is exercised.
        let lm = Arc::new(LockManager::with_shards(8, Obs::default()));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            handles.push(thread::spawn(move || {
                for i in 0..100u64 {
                    let txn = t * 1000 + i;
                    let k = key(&[(i % 32) as u8]);
                    lm.lock(txn, &k, LockMode::Exclusive, T).unwrap();
                    assert!(lm.holds(txn, &k, LockMode::Exclusive));
                    lm.unlock_all(txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            for i in 0..100u64 {
                assert_eq!(lm.held_count(t * 1000 + i), 0);
            }
        }
    }
}
