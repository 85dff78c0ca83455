//! rrq-obs: one observation handle per instance.
//!
//! The paper's performance arguments (§10: group-commit batching, skip-locked
//! dequeue, main-memory queues) are about *rates* — commits per force, skips
//! per dequeue, lock hold times — and its guarantee (exactly-once request
//! processing, Figs 1, 2, 5) is checked by observers of the running system.
//! An [`Obs`] is where a component reports both, and it is the only thing a
//! production crate needs to link: a cloneable handle (one `Arc`) holding
//!
//! * a metrics registry — counters and gauges (atomic cells behind a
//!   read-mostly map) and fixed-bucket power-of-two **histograms** with an
//!   exact text codec — and its logical clock;
//! * the double-count drill ([`Obs::double_count`]) that proves the
//!   explorer's conservation laws bite;
//! * two optional sinks: a [`ProtocolSink`] for the clerk's Fig 1 and the
//!   server loop's Fig 5 transitions, and a [`RaceSink`] for lock, queue and
//!   cell edges (`rrq-check` implements both).
//!
//! Whoever owns an instance creates its handle — a repository, a simulated
//! node, a network bus — and hands it to every component at construction.
//! Nothing is process-global, so two instances in one process (two tests in
//! one binary) never see each other's events.
//!
//! Everything is dormant until asked for: [`Obs::start`] turns the metrics
//! on, attaching a sink turns its hooks on, and every hook begins with one
//! relaxed load of the handle's switch, so a dormant hook costs that load
//! and nothing else — the protocol and cell hooks take their event or cell
//! name as a closure that only a live sink calls.
//!
//! Time is the handle's own logical clock: every recorded metric event
//! advances it by one tick, so durations are "events elapsed", never
//! wall-clock (the rrq-lint no-wallclock rule covers this crate). Under a
//! fixed seed the counters are exactly reproducible, which is what lets
//! `rrq_sim`'s explorer assert conservation laws over them after every
//! fault script.
//!
//! Every metric name used by a production crate must be declared exactly
//! once in `crates/obs/METRICS.md`; the `metric-catalogue` rrq-lint rule
//! enforces this.

mod sink;

pub use sink::{ClientEvent, ProtocolSink, RaceSink, ServerEvent};

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of histogram buckets: one for zero, one per power of two up to
/// `2^30`, and a final catch-all.
pub const BUCKETS: usize = 32;

// Bits of the handle's one switch, `Inner::live`.
const METRICS: u8 = 1;
const DOUBLE: u8 = 2;
const PROTOCOL: u8 = 4;
const RACE: u8 = 8;

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn read_ok<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write_ok<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

#[derive(Default)]
struct Histo {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histo {
    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed); // wrapping by construction
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Named metric cells of one kind.
type Cells<T> = RwLock<HashMap<&'static str, Arc<T>>>;

/// The cell `name` in `cells`, created on first use.
fn cell<T: Default>(cells: &Cells<T>, name: &'static str) -> Arc<T> {
    if let Some(c) = read_ok(cells).get(name) {
        return Arc::clone(c);
    }
    Arc::clone(write_ok(cells).entry(name).or_default())
}

#[derive(Default)]
struct Inner {
    /// The handle's one switch: which of `METRICS`, `DOUBLE`, `PROTOCOL` and
    /// `RACE` are live. The first (and, dormant, the only) load of every
    /// hook.
    live: AtomicU8,
    /// The logical clock.
    ticks: AtomicU64,
    counters: Cells<AtomicU64>,
    gauges: Cells<AtomicI64>,
    histograms: Cells<Histo>,
    /// The counter whose deltas the double-count drill applies twice.
    doubled: Mutex<Option<&'static str>>,
    protocol: OnceLock<Arc<dyn ProtocolSink>>,
    race: OnceLock<Arc<dyn RaceSink>>,
}

/// One instance's observation handle; see the crate docs. `Default` is a
/// dormant handle. Clones share everything: a component keeps the clone it
/// was built with and never clones it per request.
#[derive(Clone, Default)]
pub struct Obs(Arc<Inner>);

impl Obs {
    /// Is `bit` live? The one relaxed load a dormant hook costs.
    fn live(&self, bit: u8) -> bool {
        self.0.live.load(Ordering::Relaxed) & bit != 0
    }

    fn switch(&self, bit: u8, on: bool) {
        if on {
            self.0.live.fetch_or(bit, Ordering::SeqCst);
        } else {
            self.0.live.fetch_and(!bit, Ordering::SeqCst);
        }
    }

    /// Clear the metrics and the clock, disarm the drill, and record from
    /// here on.
    pub fn start(&self) {
        self.reset();
        self.double_count(None);
        self.switch(METRICS, true);
    }

    /// Clear every metric and the clock; a started handle keeps recording.
    pub fn reset(&self) {
        write_ok(&self.0.counters).clear();
        write_ok(&self.0.gauges).clear();
        write_ok(&self.0.histograms).clear();
        self.0.ticks.store(0, Ordering::SeqCst);
    }

    /// Drill: apply every delta to the counter `name` twice (`None`
    /// disarms) — an instrumentation bug the explorer's metrics oracle must
    /// catch.
    pub fn double_count(&self, name: Option<&'static str>) {
        *lock_ok(&self.0.doubled) = name;
        self.switch(DOUBLE, name.is_some());
    }

    /// Advance the logical clock by one event.
    fn tick(&self) {
        self.0.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Current logical-clock reading (does not advance the clock).
    pub fn now(&self) -> u64 {
        self.0.ticks.load(Ordering::Relaxed)
    }

    /// Add `delta` to the named counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.live(METRICS) {
            return;
        }
        self.tick();
        let doubled = self.live(DOUBLE) && *lock_ok(&self.0.doubled) == Some(name);
        let delta = if doubled {
            delta.wrapping_mul(2)
        } else {
            delta
        };
        cell(&self.0.counters, name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one to the named counter.
    pub fn counter_inc(&self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Add `delta` (possibly negative) to the named gauge.
    pub fn gauge_add(&self, name: &'static str, delta: i64) {
        if !self.live(METRICS) {
            return;
        }
        self.tick();
        cell(&self.0.gauges, name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Record `value` into the named histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.live(METRICS) {
            return;
        }
        self.tick();
        cell(&self.0.histograms, name).observe(value);
    }

    /// Copy the registry. On a handle that never started it is empty.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<(String, Value)> = Vec::new();
        for (name, c) in read_ok(&self.0.counters).iter() {
            entries.push((name.to_string(), Value::Counter(c.load(Ordering::SeqCst))));
        }
        for (name, g) in read_ok(&self.0.gauges).iter() {
            entries.push((name.to_string(), Value::Gauge(g.load(Ordering::SeqCst))));
        }
        for (name, h) in read_ok(&self.0.histograms).iter() {
            entries.push((name.to_string(), Value::Histogram(h.snapshot())));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { entries }
    }

    /// The sink in `slot` while `bit` is live.
    fn sink<'a, S: ?Sized>(&'a self, bit: u8, slot: &'a OnceLock<Arc<S>>) -> Option<&'a Arc<S>> {
        if self.live(bit) {
            slot.get()
        } else {
            None
        }
    }

    /// Send this handle's clerk and server-loop transitions to `sink`. A
    /// handle takes one protocol sink for life; one sink may serve several
    /// handles (a node's and its clients' bus).
    pub fn attach_protocol(&self, sink: Arc<dyn ProtocolSink>) {
        assert!(
            self.0.protocol.set(sink).is_ok(),
            "this handle already has a protocol sink"
        );
        self.switch(PROTOCOL, true);
    }

    /// Report a clerk transition; `event` runs only when a sink is attached,
    /// so a dormant hook builds (and allocates for) nothing.
    pub fn client_event(&self, client: &str, event: impl FnOnce() -> ClientEvent) {
        if let Some(s) = self.sink(PROTOCOL, &self.0.protocol) {
            s.on_client(client, event());
        }
    }

    /// Report a server-loop transition; `event` as in [`Obs::client_event`].
    pub fn server_event(&self, server: &str, event: impl FnOnce() -> ServerEvent) {
        if let Some(s) = self.sink(PROTOCOL, &self.0.protocol) {
            s.on_server(server, event());
        }
    }

    /// Send this handle's lock, queue and cell edges to `sink` (one per
    /// handle, for life).
    pub fn attach_race(&self, sink: Arc<dyn RaceSink>) {
        assert!(
            self.0.race.set(sink).is_ok(),
            "this handle already has a race sink"
        );
        self.switch(RACE, true);
    }

    fn race(&self) -> Option<&Arc<dyn RaceSink>> {
        self.sink(RACE, &self.0.race)
    }

    /// The calling thread was granted the lock `(ns, key)` — or inherited it
    /// (§5 lock transfer): it observes everything done under any previous
    /// holding of that lock.
    pub fn lock_acquired(&self, ns: u32, key: &[u8]) {
        if let Some(r) = self.race() {
            r.acquired(&lock_resource(ns, key));
        }
    }

    /// The calling thread released the lock `(ns, key)`.
    pub fn lock_released(&self, ns: u32, key: &[u8]) {
        if let Some(r) = self.race() {
            r.released(&lock_resource(ns, key));
        }
    }

    /// Everything the enqueuing transaction did so far is published to
    /// whoever later dequeues from `queue`.
    pub fn queue_enqueued(&self, queue: &str) {
        if let Some(r) = self.race() {
            r.released(&format!("queue:{queue}"));
        }
    }

    /// The dequeuer observes all publishes into `queue`.
    pub fn queue_dequeued(&self, queue: &str) {
        if let Some(r) = self.race() {
            r.acquired(&format!("queue:{queue}"));
        }
    }

    /// A read of the tracked cell `cell` names. The closure runs only while
    /// a race sink is attached, so a hot path may `format!` inside it.
    pub fn on_read(&self, cell: impl FnOnce() -> String) {
        if let Some(r) = self.race() {
            r.accessed(&cell(), false, false);
        }
    }

    /// A write of the tracked cell `cell` names; `cell` as in
    /// [`Obs::on_read`].
    pub fn on_write(&self, cell: impl FnOnce() -> String) {
        if let Some(r) = self.race() {
            r.accessed(&cell(), true, false);
        }
    }

    /// A read of a cell the store serializes with its per-key latch rather
    /// than a lock-manager lock (§4.3 registration records).
    pub fn serialized_read(&self, cell: impl FnOnce() -> String) {
        if let Some(r) = self.race() {
            r.accessed(&cell(), false, true);
        }
    }

    /// Write counterpart of [`Obs::serialized_read`].
    pub fn serialized_write(&self, cell: impl FnOnce() -> String) {
        if let Some(r) = self.race() {
            r.accessed(&cell(), true, true);
        }
    }
}

fn lock_resource(ns: u32, key: &[u8]) -> String {
    format!("lock:{ns}:{}", String::from_utf8_lossy(key))
}

/// Index of the histogram bucket for `v`: bucket 0 holds zeros, bucket
/// `i` (1..=30) holds `[2^(i-1), 2^i)`, bucket 31 holds everything above.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, used as the quantile representative.
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A point-in-time copy of one histogram. `sum` is the wrapping sum of all
/// observed values (observations are u64 and may overflow by design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; see [`bucket_of`].
    pub buckets: [u64; BUCKETS],
    /// Wrapping sum of observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one value (ground-truth bookkeeping for tests and reports).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
        self.count += 1;
    }

    /// Bucketwise merge of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }

    /// Upper bound of the bucket in which the `q`-quantile observation
    /// falls (`0.0 ..= 1.0`); returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }
}

/// One snapshotted metric value.
///
/// The histogram variant dominates the enum's size, but a snapshot holds a
/// few dozen values at most and they are iterated, not stored in bulk, so
/// boxing would buy indirection for nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Value {
    /// Monotone counter.
    Counter(u64),
    /// Signed gauge.
    Gauge(i64),
    /// Fixed-bucket histogram.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of the whole registry: `(name, value)` pairs sorted
/// by name, so two renders of equal snapshots are byte-identical and
/// snapshots are diffable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Sorted `(name, value)` entries.
    pub entries: Vec<(String, Value)>,
}

impl Snapshot {
    /// Value of the named counter, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Value of the named gauge, defaulting to 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(Value::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Render as the line-oriented text format parsed by [`Snapshot::parse`].
    ///
    /// ```text
    /// counter storage.wal.appends 42
    /// gauge qm.queue.depth 3
    /// hist txn.lock.wait_ticks count=5 sum=37 1:1 3:3 6:1
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "counter {name} {v}");
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "gauge {name} {v}");
                }
                Value::Histogram(h) => {
                    let _ = write!(out, "hist {name} count={} sum={}", h.count, h.sum);
                    for (i, b) in h.buckets.iter().enumerate() {
                        if *b != 0 {
                            let _ = write!(out, " {i}:{b}");
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Parse the [`Snapshot::render`] format; exact inverse for any
    /// rendered snapshot.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut entries: Vec<(String, Value)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
            let mut tok = line.split_whitespace();
            let kind = tok.next().ok_or_else(|| err("empty"))?;
            let name = tok.next().ok_or_else(|| err("missing name"))?.to_string();
            match kind {
                "counter" => {
                    let v = tok
                        .next()
                        .and_then(|t| t.parse::<u64>().ok())
                        .ok_or_else(|| err("bad counter value"))?;
                    entries.push((name, Value::Counter(v)));
                }
                "gauge" => {
                    let v = tok
                        .next()
                        .and_then(|t| t.parse::<i64>().ok())
                        .ok_or_else(|| err("bad gauge value"))?;
                    entries.push((name, Value::Gauge(v)));
                }
                "hist" => {
                    let mut h = HistogramSnapshot::default();
                    for t in tok {
                        if let Some(v) = t.strip_prefix("count=") {
                            h.count = v.parse().map_err(|_| err("bad count"))?;
                        } else if let Some(v) = t.strip_prefix("sum=") {
                            h.sum = v.parse().map_err(|_| err("bad sum"))?;
                        } else {
                            let (i, n) = t.split_once(':').ok_or_else(|| err("bad bucket"))?;
                            let i: usize = i.parse().map_err(|_| err("bad bucket index"))?;
                            if i >= BUCKETS {
                                return Err(err("bucket index out of range"));
                            }
                            h.buckets[i] = n.parse().map_err(|_| err("bad bucket count"))?;
                        }
                    }
                    entries.push((name, Value::Histogram(h)));
                }
                _ => return Err(err("unknown metric kind")),
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Snapshot { entries })
    }

    /// Difference since `earlier`: counters and histogram contents
    /// subtract (wrapping), gauges keep their later reading. Metrics absent
    /// from `earlier` pass through unchanged.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut entries: Vec<(String, Value)> = Vec::new();
        for (name, value) in &self.entries {
            let diffed = match (value, earlier.get(name)) {
                (Value::Counter(now), Some(Value::Counter(then))) => {
                    Value::Counter(now.wrapping_sub(*then))
                }
                (Value::Histogram(now), Some(Value::Histogram(then))) => {
                    let mut h = now.clone();
                    for (b, t) in h.buckets.iter_mut().zip(then.buckets.iter()) {
                        *b = b.wrapping_sub(*t);
                    }
                    h.sum = h.sum.wrapping_sub(then.sum);
                    h.count = h.count.wrapping_sub(then.count);
                    Value::Histogram(h)
                }
                _ => value.clone(),
            };
            entries.push((name.clone(), diffed));
        }
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started() -> Obs {
        let obs = Obs::default();
        obs.start();
        obs
    }

    #[test]
    fn hooks_are_inert_without_a_session() {
        // A handle records nothing until `start` opens its metrics session.
        let obs = Obs::default();
        obs.counter_add("t.inert", 5);
        obs.gauge_add("t.inert.g", 2);
        obs.observe("t.inert.h", 7);
        assert_eq!(obs.snapshot(), Snapshot::default());
        assert_eq!(obs.now(), 0);
    }

    #[test]
    fn counters_gauges_and_histograms_record() {
        let obs = started();
        obs.counter_add("t.c", 2);
        obs.counter_inc("t.c");
        obs.gauge_add("t.g", 5);
        obs.gauge_add("t.g", -2);
        obs.observe("t.h", 0);
        obs.observe("t.h", 3);
        obs.observe("t.h", 1024);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("t.c"), 3);
        assert_eq!(snap.gauge("t.g"), 3);
        let h = snap.histogram("t.h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1027);
        assert_eq!(h.buckets[bucket_of(0)], 1);
        assert_eq!(h.buckets[bucket_of(3)], 1);
        assert_eq!(h.buckets[bucket_of(1024)], 1);
        assert_eq!(obs.now(), 7, "one tick per recorded event");
    }

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for v in [0u64, 1, 7, 8, 1 << 29, (1 << 30) + 1, u64::MAX] {
            let i = bucket_of(v);
            assert!(v <= bucket_bound(i), "v={v} bucket={i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let obs = started();
        obs.counter_add("t.rt.c", 42);
        obs.gauge_add("t.rt.g", -7);
        for v in [0u64, 1, 2, 3, 9, 1 << 20, u64::MAX] {
            obs.observe("t.rt.h", v);
        }
        let snap = obs.snapshot();
        let text = snap.render();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn diff_subtracts_counters_and_histograms() {
        let obs = started();
        obs.counter_add("t.d.c", 10);
        obs.observe("t.d.h", 4);
        let before = obs.snapshot();
        obs.counter_add("t.d.c", 5);
        obs.observe("t.d.h", 4);
        obs.gauge_add("t.d.g", 9);
        let after = obs.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("t.d.c"), 5);
        assert_eq!(d.histogram("t.d.h").unwrap().count, 1);
        assert_eq!(d.gauge("t.d.g"), 9);
    }

    #[test]
    fn double_count_knob_doubles_one_counter_only() {
        let obs = started();
        obs.double_count(Some("t.bug.target"));
        obs.counter_add("t.bug.target", 3);
        obs.counter_add("t.bug.other", 3);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("t.bug.target"), 6);
        assert_eq!(snap.counter("t.bug.other"), 3);
        obs.double_count(None);
        obs.counter_add("t.bug.target", 1);
        assert_eq!(obs.snapshot().counter("t.bug.target"), 7);
    }

    #[test]
    fn session_reset_clears_state_but_stays_enabled() {
        let obs = started();
        obs.counter_inc("t.reset");
        obs.reset();
        assert_eq!(obs.snapshot().counter("t.reset"), 0);
        obs.counter_inc("t.reset");
        assert_eq!(obs.snapshot().counter("t.reset"), 1);
    }

    #[test]
    fn quantiles_hit_bucket_bounds() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..90 {
            h.record(3); // bucket 2, bound 3
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, bound 1023
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.9), 3);
        assert_eq!(h.quantile(0.95), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }
}
