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
//! the order it met their commit records and needs no sort. A checkpoint
//! appends a `Checkpoint` record naming the chain its segment will complete,
//! forces the log, makes the segment durable, and only then resets the log
//! with one atomic device swap, so a crash leaves either the reset log or
//! the whole one — and in the whole one, the record that names the chain
//! [`replay`] is handed marks how far that chain covers it. Replay starts
//! there: a move reads the tree it is applied to, so replaying it over a
//! chain that already holds its effect would move something else.
//!
//! Records are grouped by the *internal incarnation id* the store stamps
//! into each record's txn field — unique per transaction incarnation, never
//! reused within a log, so a caller token recycled after a restart can never
//! splice a dead incarnation's data records into a later outcome. `Prepare`
//! records carry the caller's token in their payload, so in-doubt
//! transactions still surface under the token the coordinator knows.

use crate::checkpoint::ChainMark;
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

/// One transaction's data records, in append order.
#[derive(Default)]
struct Logged {
    ops: Vec<WriteOp>,
    /// A `Prepare` or `Commit` record followed them: the write set is whole.
    /// Data records after that belong to a retry (the first attempt's force
    /// failed), and a retry logs the whole write set again.
    sealed: bool,
}

impl Logged {
    fn push(&mut self, op: WriteOp) {
        if self.sealed {
            // Only the last attempt is the transaction: a superseded put or
            // delete would replay to the same tree, a superseded move would
            // not.
            self.ops.clear();
            self.sealed = false;
        }
        self.ops.push(op);
    }
}

/// Scan the log once and classify every transaction's fate. `chain` names
/// the checkpoint chain the result will be applied over: a `Checkpoint`
/// record naming it says that chain covers the log up to there, and the scan
/// starts over from that record (the default mark names no chain).
pub fn replay(wal: &Wal, chain: ChainMark) -> StorageResult<ReplayOutcome> {
    let mut out = ReplayOutcome::default();
    let mut logged: HashMap<u64, Logged> = HashMap::new();
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
    // Payloads are borrowed from the scan window: a data record's keys and
    // value are copied out once, into the `WriteOp` that replay will move
    // into the tree.
    out.valid_end = wal.scan_with(0, |_lsn, txn, kind, payload| {
        max_txn = max_txn.max(txn);
        match kind {
            RecordKind::KvPut => {
                let op = WriteOp::decode_put(payload)?;
                logged.entry(txn).or_default().push(op);
            }
            RecordKind::KvDelete => {
                let op = WriteOp::decode_delete(payload)?;
                logged.entry(txn).or_default().push(op);
            }
            RecordKind::KvMove => {
                let op = WriteOp::decode_move(payload)?;
                logged.entry(txn).or_default().push(op);
            }
            RecordKind::Prepare => {
                let token = Reader::new(payload).u64().unwrap_or(txn);
                prepared.push((txn, token));
                if let Some(l) = logged.get_mut(&txn) {
                    l.sealed = true;
                }
            }
            RecordKind::Commit => {
                // A commit retried after a failed force left two records;
                // the live store applied it at the second.
                if !committed.insert(txn) {
                    commit_order.retain(|t| *t != txn);
                }
                commit_order.push(txn);
                if let Some(l) = logged.get_mut(&txn) {
                    l.sealed = true;
                }
            }
            RecordKind::Abort => {
                aborted.insert(txn);
            }
            RecordKind::Checkpoint => {
                // No transaction straddles a checkpoint: it runs with every
                // commit point shut out and refuses while one is prepared.
                if chain.named_by(payload) {
                    logged.clear();
                    committed.clear();
                    commit_order.clear();
                    aborted.clear();
                    prepared.clear();
                }
            }
            RecordKind::Custom(_) => {
                // Scanned by their owners via `Wal::scan` directly.
            }
        }
        Ok(())
    })?;
    let mut ops_of = |txn| logged.remove(&txn).map(|l| l.ops).unwrap_or_default();
    for txn in commit_order {
        out.redo.extend(ops_of(txn));
    }
    out.committed_txns = committed.len();
    out.aborted_txns = aborted.difference(&committed).count();
    out.next_txn_id = max_txn + 1;
    for (id, token) in prepared {
        // (A prepare retried after a failed force left two records.)
        if committed.contains(&id) || aborted.contains(&id) || out.in_doubt.contains_key(&token) {
            continue;
        }
        out.in_doubt.insert(token, ops_of(id));
        out.in_doubt_internal.insert(token, id);
    }
    // Writes without prepare or outcome simply vanish (the crash hit before
    // commit); the leftovers in `logged` are dropped here.
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
        let out = replay(&w, ChainMark::default()).unwrap();
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
        let out = replay(&w, ChainMark::default()).unwrap();
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
        let out = replay(&w, ChainMark::default()).unwrap();
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
        let out = replay(&w, ChainMark::default()).unwrap();
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
        let out = replay(&w, ChainMark::default()).unwrap();
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
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.committed_txns, 2);
        match out.redo.last() {
            Some(WriteOp::Put { value, .. }) => assert_eq!(value, b"one"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_retried_commit_replays_only_its_last_attempt() {
        // The first attempt's force failed after its records landed; the
        // retry logged the write set again. Replaying both would run the
        // move twice: the second time `a` is gone, and `b` would keep the
        // put's value instead of the moved one.
        let w = wal();
        let mv = WriteOp::Move {
            from: b"a".to_vec(),
            to: b"b".to_vec(),
        };
        for _attempt in 0..2 {
            w.append(1, RecordKind::KvPut, &put_payload(b"b", b"put"))
                .unwrap();
            w.append(1, RecordKind::KvMove, &mv.encode_payload())
                .unwrap();
            w.append(1, RecordKind::Commit, &[]).unwrap();
        }
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.committed_txns, 1);
        assert_eq!(out.redo.len(), 2);
        assert_eq!(out.redo[1], mv);
    }

    #[test]
    fn a_retried_prepare_is_in_doubt_once_with_its_write_set() {
        let w = wal();
        for _attempt in 0..2 {
            w.append(5, RecordKind::KvPut, &put_payload(b"x", b"9"))
                .unwrap();
            w.append(5, RecordKind::Prepare, &77u64.to_le_bytes())
                .unwrap();
        }
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.in_doubt.len(), 1);
        assert_eq!(out.in_doubt[&77].len(), 1);
        assert_eq!(out.in_doubt_internal[&77], 5);
    }

    #[test]
    fn a_checkpoint_record_naming_the_chain_starts_the_replay_over() {
        let w = wal();
        let chain = ChainMark { end: 65, crc: 7 };
        let mut named = Vec::new();
        chain.encode_into(&mut named);
        let mut other = Vec::new();
        ChainMark { end: 65, crc: 8 }.encode_into(&mut other);
        w.append(1, RecordKind::KvPut, &put_payload(b"a", b"covered"))
            .unwrap();
        w.append(1, RecordKind::Commit, &[]).unwrap();
        w.append(0, RecordKind::Checkpoint, &named).unwrap();
        w.append(2, RecordKind::KvPut, &put_payload(b"b", b"after"))
            .unwrap();
        w.append(2, RecordKind::Commit, &[]).unwrap();
        // A later attempt whose segment never became durable names a chain
        // that does not exist, and the record that opens a truncated log
        // names none.
        w.append(0, RecordKind::Checkpoint, &other).unwrap();
        w.append(0, RecordKind::Checkpoint, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w, chain).unwrap();
        assert_eq!(out.committed_txns, 1);
        assert_eq!(
            out.redo,
            vec![WriteOp::decode_put(&put_payload(b"b", b"after")).unwrap()]
        );
        assert_eq!(out.next_txn_id, 3, "ids stay unique past the covered part");
        // Over no chain, or another one, the whole log replays.
        assert_eq!(replay(&w, ChainMark::default()).unwrap().redo.len(), 2);
    }

    #[test]
    fn custom_and_checkpoint_records_ignored() {
        let w = wal();
        w.append(0, RecordKind::Checkpoint, &[]).unwrap();
        w.append(9, RecordKind::Custom(0x81), b"opaque").unwrap();
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert!(out.redo.is_empty());
        assert!(out.in_doubt.is_empty());
    }
}
