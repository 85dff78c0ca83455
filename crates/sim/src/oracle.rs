//! Correctness oracles for the paper's three guarantees (§3).

use parking_lot::Mutex;
use rrq_core::error::{CoreError, CoreResult};
use rrq_core::request::Reply;
use rrq_core::rid::Rid;
use rrq_core::server::{Handler, HandlerError, HandlerOutcome};
use rrq_qm::repository::Repository;
use std::collections::HashMap;
use std::sync::Arc;

fn effect_key(rid: &Rid) -> Vec<u8> {
    format!("oracle/effect/{}", rid.to_attr()).into_bytes()
}

/// An effect row's count: four little-endian bytes. A row of any other
/// length is a corrupt ledger, reported by rid.
fn effect_count(rid: &Rid, raw: Vec<u8>) -> Result<u32, String> {
    let len = raw.len();
    raw.try_into()
        .map(u32::from_le_bytes)
        .map_err(|_| format!("{rid} has a malformed effect row ({len} bytes)"))
}

/// Counts committed request-processing effects per rid, *inside* the request
/// transaction — so an aborted attempt leaves no count, exactly like any
/// other transactional effect. Exactly-once request processing holds iff
/// every processed rid has count 1.
pub struct EffectLedger;

impl EffectLedger {
    /// Wrap `inner` so each execution increments the rid's effect count in
    /// the same transaction.
    pub fn instrument(inner: Handler) -> Handler {
        Arc::new(move |ctx, req| {
            let key = effect_key(&req.rid);
            let txn = ctx.txn.id().raw();
            let row = ctx
                .store()
                .get(Some(txn), &key)
                .map_err(|e| HandlerError::Abort(e.to_string()))?;
            let count = match row {
                Some(raw) => effect_count(&req.rid, raw).map_err(HandlerError::Abort)?,
                None => 0,
            };
            ctx.store()
                .put(txn, &key, &(count + 1).to_le_bytes())
                .map_err(|e| HandlerError::Abort(e.to_string()))?;
            let out = inner(ctx, req)?;
            // Intermediate outputs of interactive requests legitimately
            // commit several transactions per rid; only count final effects.
            if matches!(out, HandlerOutcome::IntermediateReply { .. }) {
                ctx.store()
                    .put(txn, &key, &count.to_le_bytes())
                    .map_err(|e| HandlerError::Abort(e.to_string()))?;
            }
            Ok(out)
        })
    }

    /// Committed effect counts per rid, aggregated across partition stores
    /// (a server counts effects on its home partition; one rid served from
    /// several homes still sums to its true multiplicity). A malformed row is
    /// [`CoreError::Malformed`] naming its rid.
    pub fn counts(repo: &Repository) -> CoreResult<HashMap<Rid, u32>> {
        let mut out = HashMap::new();
        for p in 0..repo.partitions() {
            let rows = repo.store_at(p).scan_prefix(None, b"oracle/effect/")?;
            for (k, v) in rows {
                let rid_str = String::from_utf8_lossy(&k[b"oracle/effect/".len()..]).to_string();
                if let Some(rid) = Rid::from_attr(&rid_str) {
                    let n = effect_count(&rid, v).map_err(CoreError::Malformed)?;
                    *out.entry(rid).or_insert(0) += n;
                }
            }
        }
        Ok(out)
    }

    /// Assert exactly-once over `expected` rids: each has count exactly 1 —
    /// and nothing unexpected was processed. Returns the violations; a
    /// malformed row is one.
    pub fn violations(repo: &Repository, expected: &[Rid]) -> CoreResult<Vec<String>> {
        let counts = match Self::counts(repo) {
            Err(CoreError::Malformed(bad)) => return Ok(vec![bad]),
            counts => counts?,
        };
        let mut bad = Vec::new();
        for rid in expected {
            match counts.get(rid) {
                Some(1) => {}
                Some(n) => bad.push(format!("{rid} processed {n} times")),
                None => bad.push(format!("{rid} never processed")),
            }
        }
        for (rid, n) in &counts {
            if !expected.contains(rid) {
                bad.push(format!("unexpected rid {rid} processed {n} times"));
            }
        }
        Ok(bad)
    }
}

/// Client-side oracle: records every reply handed to the reply processor,
/// checking request/reply matching and measuring reply-processing
/// multiplicity (at-least-once allows > 1; exactly-once requires == 1).
#[derive(Default)]
pub struct ReplyMatcher {
    inner: Mutex<MatcherInner>,
}

#[derive(Default)]
struct MatcherInner {
    processed: HashMap<Rid, u32>,
    mismatches: Vec<String>,
}

impl ReplyMatcher {
    /// New oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one processed reply, with the rid of the request it was
    /// expected to answer.
    pub fn record(&self, expected: &Rid, reply: &Reply) {
        let mut g = self.inner.lock();
        if &reply.rid != expected {
            g.mismatches
                .push(format!("expected {expected}, reply was for {}", reply.rid));
        }
        *g.processed.entry(reply.rid.clone()).or_insert(0) += 1;
    }

    /// Request/reply matching violations (must be empty).
    pub fn mismatches(&self) -> Vec<String> {
        self.inner.lock().mismatches.clone()
    }

    /// At-least-once check over `expected`: rids whose reply was never
    /// processed.
    pub fn missing(&self, expected: &[Rid]) -> Vec<Rid> {
        let g = self.inner.lock();
        expected
            .iter()
            .filter(|r| !g.processed.contains_key(r))
            .cloned()
            .collect()
    }

    /// Rids processed more than once (allowed by at-least-once; must be
    /// empty when the device is testable).
    pub fn duplicated(&self) -> Vec<(Rid, u32)> {
        self.inner
            .lock()
            .processed
            .iter()
            .filter(|(_, &n)| n > 1)
            .map(|(r, &n)| (r.clone(), n))
            .collect()
    }
}

/// The queue managers' own self-checks, partition by partition: the ready
/// index equals a scan of the stored elements, every retained element
/// belongs to exactly one stable registration, and no index row points at a
/// missing element. Meaningful where nothing is in flight: on a repository
/// just reopened, before its servers start, and at a script's quiescent end.
pub fn store_self_checks(repo: &Repository) -> Vec<String> {
    let mut bad = Vec::new();
    for p in 0..repo.partitions() {
        let qm = repo.qm_at(p);
        for (check, found) in [
            ("index", qm.index_divergence()),
            ("retention", qm.retention_divergence()),
        ] {
            match found {
                Ok(None) => {}
                Ok(Some(d)) => bad.push(format!("{check} divergence on partition {p}: {d}")),
                Err(e) => bad.push(format!("{check} check unreadable on partition {p}: {e}")),
            }
        }
    }
    bad
}

/// The metrics oracle: conservation laws over the production counters,
/// checked at a quiescent point (every request answered, clerk disconnected,
/// servers idle on empty queues) against a snapshot of the node's handle,
/// started for this script alone. The laws hold across crashes because counter increments sit
/// after the durable commit they describe and node crashes join server
/// threads before failing the disks — an increment is never torn off from
/// its committed effect.
///
/// * **Law A (element conservation).** Every committed enqueue is either
///   still queued, retired by a committed dequeue, or dropped by an abort
///   disposition: `enqueue.committed − dequeue.committed − element.dropped`
///   must equal the `qm.queue.depth` gauge, which must equal the live ready
///   index's element total (both read in one critical section).
/// * **Law B (durability ordering).** A commit record is acknowledged only
///   after its force: `wal.records_synced ≥ wal.commit_records`.
/// * **Law C (group-commit accounting).** A follower wakes only when some
///   force covered its record: `gc.follower_wakeups ≤ wal.records_synced`.
/// * **Law D (reply/effect agreement).** Every committed final reply ran
///   the instrumented handler inside the same transaction:
///   `core.server.replies_committed` equals the effect ledger's total.
pub fn metrics_conservation(
    snap: &rrq_obs::Snapshot,
    repo: &Repository,
    ledger_total: u64,
) -> Vec<String> {
    let mut bad = Vec::new();

    // Law A.
    let enq = snap.counter("qm.enqueue.committed");
    let deq = snap.counter("qm.dequeue.committed");
    let dropped = snap.counter("qm.element.dropped");
    let flow = enq as i128 - deq as i128 - dropped as i128;
    // The depth gauge is session-global but each partition has its own
    // ready index: sum the live totals, read the gauge once.
    let (mut live, mut gauge) = (0usize, 0i64);
    for p in 0..repo.partitions() {
        let (l, g) = repo.qm_at(p).depth_accounting();
        live += l;
        gauge = g;
    }
    if flow != i128::from(gauge) {
        bad.push(format!(
            "metrics law A: enqueue.committed ({enq}) - dequeue.committed ({deq}) \
             - element.dropped ({dropped}) = {flow}, but qm.queue.depth gauge is {gauge}"
        ));
    }
    if i128::from(gauge) != live as i128 {
        bad.push(format!(
            "metrics law A: qm.queue.depth gauge {gauge} disagrees with the \
             ready index's {live} live elements"
        ));
    }

    // Law B.
    let synced = snap.counter("storage.wal.records_synced");
    let commits = snap.counter("storage.wal.commit_records");
    if synced < commits {
        bad.push(format!(
            "metrics law B: wal.records_synced ({synced}) < wal.commit_records ({commits})"
        ));
    }

    // Law C.
    let wakeups = snap.counter("storage.gc.follower_wakeups");
    if wakeups > synced {
        bad.push(format!(
            "metrics law C: gc.follower_wakeups ({wakeups}) > wal.records_synced ({synced})"
        ));
    }

    // Law D.
    let replies = snap.counter("core.server.replies_committed");
    if replies != ledger_total {
        bad.push(format!(
            "metrics law D: core.server.replies_committed ({replies}) != \
             effect-ledger total ({ledger_total})"
        ));
    }

    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_core::request::ReplyStatus;

    /// A corrupt effect row must not read as zero: the attempt aborts, and
    /// the ledger names the rid instead of reporting it exactly-once.
    #[test]
    fn a_malformed_effect_row_is_a_violation() {
        use rrq_core::api::LocalQm;
        use rrq_core::clerk::{Clerk, ClerkConfig};
        use rrq_core::server::{Served, Server, ServerConfig};

        let repo = Arc::new(Repository::create("oracle-malformed").unwrap());
        repo.create_queue_defaults("req").unwrap();
        repo.create_queue_defaults("reply.c1").unwrap();
        let rid = Rid::new("c1", 1);
        let store = repo.store();
        store.begin(1).unwrap();
        store.put(1, &effect_key(&rid), &[1, 0, 0]).unwrap();
        store.commit(1).unwrap();

        let clerk = Clerk::new(
            Arc::new(LocalQm::new(Arc::clone(&repo))),
            ClerkConfig::new("c1", "req"),
        );
        clerk.connect().unwrap();
        clerk.send("echo", b"x".to_vec(), rid.clone()).unwrap();
        let echo: Handler = Arc::new(|_ctx, req| Ok(HandlerOutcome::Reply(req.body.clone())));
        let server = Server::new(
            Arc::clone(&repo),
            ServerConfig::new("s", "req"),
            EffectLedger::instrument(echo),
        )
        .unwrap();
        assert_eq!(server.run_once().unwrap(), Served::Aborted);

        let violations = EffectLedger::violations(&repo, std::slice::from_ref(&rid)).unwrap();
        assert!(
            violations.iter().any(|v| v.contains(&rid.to_string())),
            "{violations:?}"
        );
    }

    #[test]
    fn matcher_detects_mismatch_and_duplicates() {
        let m = ReplyMatcher::new();
        let r1 = Rid::new("c", 1);
        let r2 = Rid::new("c", 2);
        let reply1 = Reply {
            rid: r1.clone(),
            status: ReplyStatus::Ok,
            body: vec![],
        };
        m.record(&r1, &reply1);
        m.record(&r1, &reply1); // duplicate processing
        m.record(&r2, &reply1); // mismatch
        assert_eq!(m.mismatches().len(), 1);
        assert_eq!(m.duplicated(), vec![(r1.clone(), 3)]);
        assert!(m.missing(&[r1, r2.clone()]).contains(&r2));
    }
}
