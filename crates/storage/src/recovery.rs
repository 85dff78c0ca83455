//! The redo pass run when a store reopens after a crash.
//!
//! Because uncommitted writes never reach the shared tree (see
//! [`crate::kv`]), recovery is redo-only: group the log's write records by
//! transaction, apply the groups whose `Commit` record is durable — in commit
//! order — and surface `Prepare`d-but-unresolved transactions as *in-doubt*
//! for the two-phase-commit coordinator to resolve (paper §6 notes a QM "may
//! need to support multiple transaction protocols"; in-doubt handoff is the
//! hook that makes the queue store a well-behaved 2PC participant).
//!
//! ## Partitioned logs
//!
//! With `wal_partitions > 1` the store splits its log by key hash; recovery
//! scans every log **in parallel** (one named thread per log) and then merges
//! the per-log facts. Commit records carry the global *epoch* allocated at
//! the commit point, so committed transactions are replayed in epoch order
//! across logs; a key always hashes to the same log, so per-key record order
//! within one log is already replay order for that key. Commit records with
//! no epoch payload (pre-partitioning logs, and hand-built test logs) fall
//! back to their scan position, carrying the last epoch seen in the same log
//! so legacy and epoch-stamped records interleave in log order.
//!
//! ## The checkpoint watermark
//!
//! Checkpointing truncates the logs one at a time after the chain segment is
//! durable, so a crash mid-checkpoint can leave some logs truncated and some
//! not. Every surviving record of such a crash describes a transaction the
//! chain already covers — but replaying it anyway is not harmless: a newer
//! transaction's commit record (which lives only in its *home* log) may be
//! among the truncated ones while an older transaction's data + commit for
//! the same key survive in an untruncated sibling, and redoing the older
//! commit would regress the key below checkpointed state. The chain
//! therefore carries a **covered-epoch watermark**
//! ([`crate::checkpoint::CheckpointChain::covered_epoch`]), and
//! [`replay_partitioned`] *skips* every commit record with a lower epoch:
//! the record still resolves its transaction (a matching `Prepare` does not
//! resurface as in-doubt, and it still counts in `committed_txns`), but its
//! redo operations are dropped — the chain already holds their final
//! effect. The recovered epoch counter resumes at or above the watermark so
//! post-recovery commits can never be mistaken for covered ones.
//!
//! Records are grouped by the *internal incarnation id* the store stamps
//! into each record's txn field — unique per transaction incarnation, never
//! reused, so a caller token recycled after a restart can never splice a
//! dead incarnation's data records into a later outcome (the single-log
//! scanner used to handle this by consuming ops at each outcome record in
//! sequence; with outcome records living in one log and data records in
//! many, uniqueness replaces sequence). `Prepare` records carry the caller's
//! token in their payload, so in-doubt transactions still surface under the
//! token the coordinator knows.

use crate::codec::Reader;
use crate::error::{StorageError, StorageResult};
use crate::kv::WriteOp;
use crate::wal::{RecordKind, Wal};
use std::collections::{HashMap, HashSet};

/// What the redo pass found in a single log, before it is applied.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Redo operations of committed transactions, in commit order.
    pub redo: Vec<WriteOp>,
    /// Number of committed transactions replayed.
    pub committed_txns: usize,
    /// Number of aborted transactions discarded.
    pub aborted_txns: usize,
    /// Prepared transactions with no durable outcome, with their buffered
    /// writes, keyed by transaction token.
    pub in_doubt: HashMap<u64, Vec<WriteOp>>,
    /// Byte offset where the valid log prefix ends. Anything between here
    /// and the device length is a torn tail that must be discarded before
    /// new records are appended — otherwise the next recovery scan stops at
    /// the old tear and never sees them.
    pub valid_end: u64,
}

/// What the redo pass found across a set of partitioned logs.
#[derive(Debug, Default)]
pub struct PartitionedOutcome {
    /// Redo operations of committed transactions, in global epoch order.
    pub redo: Vec<WriteOp>,
    /// Number of committed transactions replayed.
    pub committed_txns: usize,
    /// Number of aborted transactions discarded.
    pub aborted_txns: usize,
    /// Prepared transactions with no durable outcome, ops merged across
    /// logs, keyed by transaction token.
    pub in_doubt: HashMap<u64, Vec<WriteOp>>,
    /// Internal incarnation id of each in-doubt transaction, keyed by
    /// token — resolving the transaction must reuse its original id so the
    /// outcome record matches the data records already in the logs.
    pub in_doubt_internal: HashMap<u64, u64>,
    /// Per-log valid-prefix ends (index-aligned with the scanned logs).
    pub valid_ends: Vec<u64>,
    /// One past the highest commit epoch seen — where the epoch counter and
    /// the retire line resume.
    pub next_epoch: u64,
    /// One past the highest incarnation id seen in any log — where the
    /// store's id counter resumes so ids stay unique across restarts.
    pub next_txn_id: u64,
}

/// Summary returned to callers of [`crate::kv::KvStore::open`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Redo operations applied.
    pub replayed: usize,
    /// Committed transactions found in the log.
    pub committed_txns: usize,
    /// Aborted transactions found in the log.
    pub aborted_txns: usize,
    /// Tokens of in-doubt (prepared, unresolved) transactions, sorted.
    pub in_doubt: Vec<u64>,
}

/// Per-log classification of every record, produced by one scan.
#[derive(Debug, Default)]
struct LogFacts {
    valid_end: u64,
    /// Data records per transaction, in append order.
    ops: HashMap<u64, Vec<WriteOp>>,
    /// Commit records in scan order: (txn, epoch payload if present).
    commits: Vec<(u64, Option<u64>)>,
    /// Prepare records: (incarnation id, caller token from the payload —
    /// falling back to the id itself for payload-less legacy records).
    prepared: Vec<(u64, u64)>,
    aborted: Vec<u64>,
    /// Highest record txn field seen (0 when the log is empty).
    max_txn: u64,
}

fn scan_and_classify(wal: &Wal) -> StorageResult<LogFacts> {
    let mut facts = LogFacts::default();
    // Payloads are borrowed from the scan window: a data record's key and
    // value are copied out once, into the `WriteOp` that replay will move
    // into the tree.
    facts.valid_end = wal.scan_with(0, |_lsn, txn, kind, payload| {
        facts.max_txn = facts.max_txn.max(txn);
        match kind {
            RecordKind::KvPut => {
                let op = WriteOp::decode_put(payload)?;
                facts.ops.entry(txn).or_default().push(op);
            }
            RecordKind::KvDelete => {
                let op = WriteOp::decode_delete(payload)?;
                facts.ops.entry(txn).or_default().push(op);
            }
            RecordKind::Prepare => {
                let token = Reader::new(payload).u64().unwrap_or(txn);
                facts.prepared.push((txn, token));
            }
            RecordKind::Commit => {
                let epoch = Reader::new(payload).u64().ok();
                facts.commits.push((txn, epoch));
            }
            RecordKind::Abort => facts.aborted.push(txn),
            RecordKind::Checkpoint | RecordKind::Custom(_) => {
                // Checkpoint markers carry no redo info; custom records are
                // scanned by their owners via `Wal::scan` directly.
            }
        }
        Ok(())
    })?;
    Ok(facts)
}

/// Scan `wals` (in parallel when there is more than one) and merge the
/// per-log facts into one global outcome.
///
/// `covered_epoch` is the checkpoint chain's watermark: commit records with
/// a lower epoch are *resolved but not replayed* — their effects are already
/// in the chain, and re-applying one could regress a key whose newer commit
/// record was in a log the interrupted checkpoint had already truncated.
/// Pass `0` when there is no chain (nothing is skipped).
pub fn replay_partitioned(wals: &[Wal], covered_epoch: u64) -> StorageResult<PartitionedOutcome> {
    let mut facts: Vec<LogFacts> = if wals.len() <= 1 {
        let mut v = Vec::with_capacity(wals.len());
        for wal in wals {
            v.push(scan_and_classify(wal)?);
        }
        v
    } else {
        let results: StorageResult<Vec<LogFacts>> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(wals.len());
            for (i, wal) in wals.iter().enumerate() {
                let builder = std::thread::Builder::new().name(format!("rrq-recover-{i}"));
                let handle = builder
                    .spawn_scoped(s, move || scan_and_classify(wal))
                    .map_err(|e| {
                        StorageError::InvalidState(format!("recovery scan thread: {e}"))
                    })?;
                handles.push(handle);
            }
            let mut out = Vec::with_capacity(handles.len());
            for h in handles {
                let res = h.join().map_err(|_| {
                    StorageError::InvalidState("recovery scan thread panicked".into())
                })?;
                out.push(res?);
            }
            Ok(out)
        });
        rrq_obs::counter_add("storage.recovery.parallel_logs", wals.len() as u64);
        results?
    };

    // Merge: a transaction is committed if any log holds its commit record.
    // Sort key = (epoch, log, scan position); commits without an epoch carry
    // the last epoch seen in their log, so they stay in log order relative
    // to their neighbours.
    let mut committed: HashMap<u64, (u64, usize, usize)> = HashMap::new();
    let mut max_epoch: Option<u64> = None;
    let mut max_txn = 0u64;
    let mut prepared: Vec<(u64, u64)> = Vec::new();
    let mut aborted: HashSet<u64> = HashSet::new();
    for (li, f) in facts.iter().enumerate() {
        max_txn = max_txn.max(f.max_txn);
        let mut carry = 0u64;
        for (pos, (txn, epoch)) in f.commits.iter().enumerate() {
            let key_epoch = match epoch {
                Some(e) => {
                    carry = *e;
                    max_epoch = Some(max_epoch.map_or(*e, |m| m.max(*e)));
                    *e
                }
                None => carry,
            };
            committed.insert(*txn, (key_epoch, li, pos));
        }
        prepared.extend(f.prepared.iter().copied());
        aborted.extend(f.aborted.iter().copied());
    }

    let mut order: Vec<(u64, usize, usize, u64)> = committed
        .iter()
        .map(|(txn, (e, li, pos))| (*e, *li, *pos, *txn))
        .collect();
    order.sort_unstable();

    let mut out = PartitionedOutcome {
        committed_txns: committed.len(),
        valid_ends: facts.iter().map(|f| f.valid_end).collect(),
        // Floor at the watermark: after a checkpoint truncates every log the
        // epoch counter would otherwise restart at 0, and this recovery's
        // own commits would look "covered" to the *next* recovery.
        next_epoch: max_epoch.map_or(0, |e| e + 1).max(covered_epoch),
        next_txn_id: max_txn + 1,
        ..PartitionedOutcome::default()
    };
    for (epoch, _, _, txn) in order {
        if epoch < covered_epoch {
            // Covered by the checkpoint chain: the transaction is resolved
            // (its prepare, if any, must not resurface as in-doubt) but its
            // redo is already reflected in the chain — and may since have
            // been overwritten by a newer commit whose own record lived in
            // an already-truncated log. Drop the ops instead of replaying.
            for f in facts.iter_mut() {
                f.ops.remove(&txn);
            }
            rrq_obs::counter_inc("storage.recovery.covered_commits_skipped");
            continue;
        }
        for f in facts.iter_mut() {
            if let Some(ops) = f.ops.remove(&txn) {
                out.redo.extend(ops);
            }
        }
    }
    for txn in &aborted {
        if !committed.contains_key(txn) {
            out.aborted_txns += 1;
        }
    }
    for (id, token) in prepared {
        if committed.contains_key(&id) || aborted.contains(&id) {
            continue;
        }
        let mut ops = Vec::new();
        for f in facts.iter_mut() {
            if let Some(part) = f.ops.remove(&id) {
                ops.extend(part);
            }
        }
        out.in_doubt.insert(token, ops);
        out.in_doubt_internal.insert(token, id);
    }
    // Writes without prepare or outcome simply vanish (the crash hit before
    // commit); `facts[*].ops` leftovers are dropped here.
    Ok(out)
}

/// Scan a single log and classify every transaction's fate (no checkpoint
/// chain: every commit found is replayed).
pub fn replay(wal: &Wal) -> StorageResult<ReplayOutcome> {
    let out = replay_partitioned(std::slice::from_ref(wal), 0)?;
    let valid_end = match out.valid_ends.first() {
        Some(v) => *v,
        None => 0,
    };
    Ok(ReplayOutcome {
        redo: out.redo,
        committed_txns: out.committed_txns,
        aborted_txns: out.aborted_txns,
        in_doubt: out.in_doubt,
        valid_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use std::sync::Arc;

    fn wal() -> Wal {
        Wal::new(Arc::new(SimDisk::new()))
    }

    fn put_payload(key: &[u8], value: &[u8]) -> Vec<u8> {
        WriteOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        }
        .encode_payload()
    }

    fn epoch_payload(e: u64) -> Vec<u8> {
        let mut p = Vec::new();
        crate::codec::put::u64(&mut p, e);
        p
    }

    #[test]
    fn committed_txn_is_replayed() {
        let w = wal();
        w.append(1, RecordKind::KvPut, &put_payload(b"a", b"1"))
            .unwrap();
        w.append(1, RecordKind::Commit, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w).unwrap();
        assert_eq!(out.committed_txns, 1);
        assert_eq!(out.redo.len(), 1);
        assert!(out.in_doubt.is_empty());
    }

    #[test]
    fn unresolved_writes_are_dropped() {
        let w = wal();
        w.append(1, RecordKind::KvPut, &put_payload(b"a", b"1"))
            .unwrap();
        w.sync().unwrap();
        let out = replay(&w).unwrap();
        assert!(out.redo.is_empty());
        assert!(out.in_doubt.is_empty());
    }

    #[test]
    fn aborted_txn_discarded() {
        let w = wal();
        w.append(1, RecordKind::KvPut, &put_payload(b"a", b"1"))
            .unwrap();
        w.append(1, RecordKind::Abort, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w).unwrap();
        assert!(out.redo.is_empty());
        assert_eq!(out.aborted_txns, 1);
    }

    #[test]
    fn prepared_txn_is_in_doubt_with_its_writes() {
        let w = wal();
        w.append(5, RecordKind::KvPut, &put_payload(b"x", b"9"))
            .unwrap();
        w.append(5, RecordKind::Prepare, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w).unwrap();
        assert_eq!(out.in_doubt.len(), 1);
        assert_eq!(out.in_doubt[&5].len(), 1);
    }

    #[test]
    fn interleaved_txns_apply_in_commit_order() {
        let w = wal();
        w.append(1, RecordKind::KvPut, &put_payload(b"k", b"one"))
            .unwrap();
        w.append(2, RecordKind::KvPut, &put_payload(b"k", b"two"))
            .unwrap();
        w.append(2, RecordKind::Commit, &[]).unwrap();
        w.append(1, RecordKind::Commit, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w).unwrap();
        assert_eq!(out.redo.len(), 2);
        // txn 2 committed first, so txn 1's write must come last.
        match &out.redo[1] {
            WriteOp::Put { value, .. } => assert_eq!(value, b"one"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn custom_and_checkpoint_records_ignored() {
        let w = wal();
        w.append(0, RecordKind::Checkpoint, &[]).unwrap();
        w.append(9, RecordKind::Custom(0x81), b"opaque").unwrap();
        w.sync().unwrap();
        let out = replay(&w).unwrap();
        assert!(out.redo.is_empty());
        assert!(out.in_doubt.is_empty());
    }

    #[test]
    fn epoch_order_wins_across_logs() {
        // Two logs; the commit on log 1 has the *lower* epoch, so its write
        // must be applied first even though log order says otherwise.
        let w0 = wal();
        let w1 = wal();
        w0.append(1, RecordKind::KvPut, &put_payload(b"k", b"late"))
            .unwrap();
        w0.append(1, RecordKind::Commit, &epoch_payload(7)).unwrap();
        w1.append(2, RecordKind::KvPut, &put_payload(b"k", b"early"))
            .unwrap();
        w1.append(2, RecordKind::Commit, &epoch_payload(3)).unwrap();
        w0.sync().unwrap();
        w1.sync().unwrap();
        let out = replay_partitioned(&[w0, w1], 0).unwrap();
        assert_eq!(out.committed_txns, 2);
        assert_eq!(out.next_epoch, 8);
        match &out.redo[1] {
            WriteOp::Put { value, .. } => assert_eq!(value, b"late"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_doubt_ops_merge_across_logs() {
        // Data records in both logs, prepare in the home log only.
        let w0 = wal();
        let w1 = wal();
        w0.append(5, RecordKind::KvPut, &put_payload(b"a", b"1"))
            .unwrap();
        w0.append(5, RecordKind::Prepare, &[]).unwrap();
        w1.append(5, RecordKind::KvPut, &put_payload(b"b", b"2"))
            .unwrap();
        w0.sync().unwrap();
        w1.sync().unwrap();
        let out = replay_partitioned(&[w0, w1], 0).unwrap();
        assert_eq!(out.in_doubt.len(), 1);
        assert_eq!(out.in_doubt[&5].len(), 2, "ops from both logs merged");
    }

    #[test]
    fn sibling_data_without_commit_record_vanishes() {
        // The crash window between sibling-log force and home commit record:
        // data is durable in log 1 but no commit record exists anywhere.
        let w0 = wal();
        let w1 = wal();
        w1.append(9, RecordKind::KvPut, &put_payload(b"x", b"1"))
            .unwrap();
        w1.sync().unwrap();
        let out = replay_partitioned(&[w0, w1], 0).unwrap();
        assert!(out.redo.is_empty());
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.committed_txns, 0);
    }

    #[test]
    fn per_log_valid_ends_reported() {
        let w0 = wal();
        let w1 = wal();
        w0.append(1, RecordKind::KvPut, &put_payload(b"a", b"1"))
            .unwrap();
        w0.sync().unwrap();
        w1.append(2, RecordKind::KvPut, &put_payload(b"b", b"2"))
            .unwrap();
        w1.sync().unwrap();
        // Tear log 1's tail only.
        w1.append(2, RecordKind::KvPut, &put_payload(b"c", b"3"))
            .unwrap();
        w1.sync().unwrap();
        let raw = w1.disk().read(0, w1.len() as usize).unwrap();
        let cut = raw.len() - 3;
        w1.disk().reset(raw[..cut].to_vec()).unwrap();

        let wals = [w0, w1];
        let out = replay_partitioned(&wals, 0).unwrap();
        assert_eq!(out.valid_ends.len(), 2);
        assert_eq!(out.valid_ends[0], wals[0].len(), "log 0 fully valid");
        assert!(out.valid_ends[1] < cut as u64, "log 1 tail invalid");
    }

    #[test]
    fn commits_below_the_watermark_are_resolved_but_not_replayed() {
        // The partial-truncation crash: txn 1 (epoch 3) survives whole in an
        // untruncated log; txn 2's commit record (epoch 9, home = the other,
        // already-truncated log) is gone, but its data record for the same
        // key survives next to txn 1's. The chain covers both; replaying
        // txn 1 would regress the key.
        let w0 = wal(); // the truncated home log of txn 2: empty
        let w1 = wal();
        w1.append(1, RecordKind::KvPut, &put_payload(b"k", b"old"))
            .unwrap();
        w1.append(1, RecordKind::Commit, &epoch_payload(3)).unwrap();
        w1.append(2, RecordKind::KvPut, &put_payload(b"k", b"new"))
            .unwrap();
        w0.sync().unwrap();
        w1.sync().unwrap();
        let out = replay_partitioned(&[w0, w1], 10).unwrap();
        assert!(out.redo.is_empty(), "covered commit must not replay");
        assert_eq!(out.committed_txns, 1, "the commit record still counts");
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.next_epoch, 10, "epoch counter floored at the watermark");
    }

    #[test]
    fn commits_at_or_above_the_watermark_still_replay() {
        let w = wal();
        w.append(1, RecordKind::KvPut, &put_payload(b"a", b"1"))
            .unwrap();
        w.append(1, RecordKind::Commit, &epoch_payload(5)).unwrap();
        w.sync().unwrap();
        let out = replay_partitioned(std::slice::from_ref(&w), 5).unwrap();
        assert_eq!(out.redo.len(), 1, "epoch == watermark is NOT covered");
        assert_eq!(out.next_epoch, 6);
    }

    #[test]
    fn covered_prepare_plus_commit_does_not_resurface_in_doubt() {
        // A prepared-then-committed transaction whose home log escaped
        // truncation: prepare and commit records both survive below the
        // watermark. Skipping the commit must still resolve the prepare.
        let w = wal();
        w.append(4, RecordKind::KvPut, &put_payload(b"x", b"v"))
            .unwrap();
        w.append(4, RecordKind::Prepare, &[]).unwrap();
        w.append(4, RecordKind::Commit, &epoch_payload(2)).unwrap();
        w.sync().unwrap();
        let out = replay_partitioned(std::slice::from_ref(&w), 7).unwrap();
        assert!(out.redo.is_empty());
        assert!(
            out.in_doubt.is_empty(),
            "resolved txn must not come back in-doubt"
        );
    }
}
