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
//! A store has one log, and a commit point appends its `Commit` record under
//! the log's append latch, so the order in which the scan meets commit
//! records *is* commit order: [`replay`] emits transactions' operations in
//! the order it met their commit records and needs no sort. The whole log is
//! always replayed. A checkpoint forces the log, makes its chain segment
//! durable, and only then resets the log with one atomic device swap, so a
//! crash leaves either the whole log (beside a chain that may already cover
//! it — replaying it in order over that chain rebuilds the same tree) or the
//! reset one.
//!
//! Records are grouped by the *internal incarnation id* the store stamps
//! into each record's txn field — unique per transaction incarnation, never
//! reused within a log, so a caller token recycled after a restart can never
//! splice a dead incarnation's data records into a later outcome. `Prepare`
//! records carry the caller's token in their payload, so in-doubt
//! transactions still surface under the token the coordinator knows.

use crate::codec::Reader;
use crate::error::StorageResult;
use crate::kv::WriteOp;
use crate::wal::{RecordKind, Wal};
use std::collections::{HashMap, HashSet};

/// What the redo pass found in the log, before it is applied.
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
    /// Internal incarnation id of each in-doubt transaction, keyed by
    /// token — resolving the transaction must reuse its original id so the
    /// outcome record matches the data records already in the log.
    pub in_doubt_internal: HashMap<u64, u64>,
    /// Byte offset where the valid log prefix ends. Anything between here
    /// and the device length is a torn tail that must be discarded before
    /// new records are appended — otherwise the next recovery scan stops at
    /// the old tear and never sees them.
    pub valid_end: u64,
    /// One past the highest incarnation id seen in the log — where the
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

/// Scan the log once and classify every transaction's fate.
pub fn replay(wal: &Wal) -> StorageResult<ReplayOutcome> {
    let mut out = ReplayOutcome::default();
    // Data records per transaction, in append order.
    let mut ops: HashMap<u64, Vec<WriteOp>> = HashMap::new();
    let mut committed: HashSet<u64> = HashSet::new();
    // Committed transactions in the order the scan met their commit records.
    // Emitted after the scan: freeing per-txn vectors mid-scan scatters later
    // allocations and slows the apply loop (CHANGES.md PR 16).
    let mut commit_order: Vec<u64> = Vec::new();
    let mut aborted: HashSet<u64> = HashSet::new();
    // Prepare records: (incarnation id, caller token from the payload —
    // falling back to the id itself for payload-less hand-built records).
    let mut prepared: Vec<(u64, u64)> = Vec::new();
    let mut max_txn = 0u64;
    // Payloads are borrowed from the scan window: a data record's key and
    // value are copied out once, into the `WriteOp` that replay will move
    // into the tree.
    out.valid_end = wal.scan_with(0, |_lsn, txn, kind, payload| {
        max_txn = max_txn.max(txn);
        match kind {
            RecordKind::KvPut => {
                let op = WriteOp::decode_put(payload)?;
                ops.entry(txn).or_default().push(op);
            }
            RecordKind::KvDelete => {
                let op = WriteOp::decode_delete(payload)?;
                ops.entry(txn).or_default().push(op);
            }
            RecordKind::Prepare => {
                let token = Reader::new(payload).u64().unwrap_or(txn);
                prepared.push((txn, token));
            }
            RecordKind::Commit => {
                // A commit retried after a failed force left two records;
                // the live store applied it at the second.
                if !committed.insert(txn) {
                    commit_order.retain(|t| *t != txn);
                }
                commit_order.push(txn);
            }
            RecordKind::Abort => {
                aborted.insert(txn);
            }
            RecordKind::Checkpoint | RecordKind::Custom(_) => {
                // Checkpoint markers carry no redo info; custom records are
                // scanned by their owners via `Wal::scan` directly.
            }
        }
        Ok(())
    })?;
    for txn in commit_order {
        out.redo.extend(ops.remove(&txn).unwrap_or_default());
    }
    out.committed_txns = committed.len();
    out.aborted_txns = aborted.difference(&committed).count();
    out.next_txn_id = max_txn + 1;
    for (id, token) in prepared {
        if committed.contains(&id) || aborted.contains(&id) {
            continue;
        }
        out.in_doubt
            .insert(token, ops.remove(&id).unwrap_or_default());
        out.in_doubt_internal.insert(token, id);
    }
    // Writes without prepare or outcome simply vanish (the crash hit before
    // commit); the leftovers in `ops` are dropped here.
    Ok(out)
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
    fn a_retried_commit_replays_at_its_last_record() {
        // Txn 1's first commit record landed but its force failed; txn 2
        // committed over the same key; then txn 1's retry logged its writes
        // and a second commit record. The live store applied 2, then 1.
        let w = wal();
        w.append(1, RecordKind::KvPut, &put_payload(b"k", b"one"))
            .unwrap();
        w.append(1, RecordKind::Commit, &[]).unwrap();
        w.append(2, RecordKind::KvPut, &put_payload(b"k", b"two"))
            .unwrap();
        w.append(2, RecordKind::Commit, &[]).unwrap();
        w.append(1, RecordKind::KvPut, &put_payload(b"k", b"one"))
            .unwrap();
        w.append(1, RecordKind::Commit, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w).unwrap();
        assert_eq!(out.committed_txns, 2);
        match out.redo.last() {
            Some(WriteOp::Put { value, .. }) => assert_eq!(value, b"one"),
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
}
