//! The redo pass run when a store reopens after a crash.
//!
//! Because uncommitted writes never reach the shared tree (see
//! [`crate::kv`]), recovery is redo-only: apply the write sets of the
//! transactions whose `Commit` record is durable — in commit order — and
//! surface `Prepare`d-but-unresolved transactions as *in-doubt* for the
//! two-phase-commit coordinator to resolve (paper §6 notes a QM "may need to
//! support multiple transaction protocols"; in-doubt handoff is the hook that
//! makes the queue store a well-behaved 2PC participant).
//!
//! A commit point writes one record that holds the transaction's whole write
//! set as an op list ([`WriteOp::encode_list`]). A one-phase `Commit` carries
//! it; a `Prepare` carries the caller's token and then it; the `Commit` that
//! resolves a prepare carries nothing and applies what the prepare logged.
//! The frame's CRC vouches for its bytes, so a payload that is not a whole op
//! list — or a data op logged as a record of its own — is no torn tail but
//! corruption: the pass fails at that record instead of applying part of a
//! transaction.
//!
//! A commit or prepare whose force failed is retried, and the retry logs its
//! record again. The *last* attempt is the transaction: its write set
//! replaces the earlier one (a superseded put or delete would replay to the
//! same tree, a superseded move would not), and a retried commit takes its
//! place in commit order at its last record, where the live store applied it.
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
//! Records are keyed by the *internal incarnation id* the store stamps into
//! each record's txn field — unique per transaction incarnation, never
//! reused within a log, so a caller token recycled after a restart can never
//! pair a dead incarnation's prepare with a later outcome. `Prepare` records
//! carry the caller's token in their payload, so in-doubt transactions still
//! surface under the token the coordinator knows.

use crate::checkpoint::ChainMark;
use crate::codec::Reader;
use crate::error::{StorageError, StorageResult};
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
    /// outcome record matches the prepare record already in the log.
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

/// Scan the log once and classify every transaction's fate. `chain` names
/// the checkpoint chain the result will be applied over: a `Checkpoint`
/// record naming it says that chain covers the log up to there, and the scan
/// starts over from that record (the default mark names no chain).
pub fn replay(wal: &Wal, chain: ChainMark) -> StorageResult<ReplayOutcome> {
    let mut out = ReplayOutcome::default();
    // Committed write sets in the order the scan met their commit records
    // (a retried commit leaves its earlier slot empty), flattened after the
    // scan: freeing per-txn vectors mid-scan scatters later allocations and
    // slows the apply loop.
    let mut commits: Vec<Vec<WriteOp>> = Vec::new();
    let mut commit_at: HashMap<u64, usize> = HashMap::new();
    // Prepared, no outcome yet: incarnation id → (caller token, write set).
    let mut prepared: HashMap<u64, (u64, Vec<WriteOp>)> = HashMap::new();
    let mut aborted: HashSet<u64> = HashSet::new();
    let mut max_txn = 0u64;
    // Payloads are borrowed from the scan window: keys and values are copied
    // out once, into the `WriteOp`s that replay will move into the tree.
    out.valid_end = wal.scan_with(0, |lsn, txn, kind, payload| {
        max_txn = max_txn.max(txn);
        let corrupt = |e: StorageError| StorageError::Corrupt {
            offset: lsn,
            detail: e.to_string(),
        };
        let mut r = Reader::new(payload);
        match kind {
            RecordKind::KvPut | RecordKind::KvDelete | RecordKind::KvMove => {
                let stray = format!("a {kind:?} record outside a commit point");
                return Err(corrupt(StorageError::Decode(stray)));
            }
            RecordKind::Prepare => {
                let token = r.u64().map_err(corrupt)?;
                let ops = WriteOp::decode_list(&mut r).map_err(corrupt)?;
                prepared.insert(txn, (token, ops));
            }
            RecordKind::Commit => {
                let ops = WriteOp::decode_list(&mut r).map_err(corrupt)?;
                // What the transaction logged before: its earlier commit
                // attempt, or its prepare.
                let logged = match commit_at.insert(txn, commits.len()) {
                    Some(at) => std::mem::take(&mut commits[at]),
                    None => prepared
                        .remove(&txn)
                        .map(|(_, ops)| ops)
                        .unwrap_or_default(),
                };
                commits.push(if ops.is_empty() { logged } else { ops });
            }
            RecordKind::Abort => {
                prepared.remove(&txn);
                aborted.insert(txn);
            }
            RecordKind::Checkpoint => {
                // No transaction straddles a checkpoint: it runs with every
                // commit point shut out and refuses while one is prepared.
                if chain.named_by(payload) {
                    commits.clear();
                    commit_at.clear();
                    prepared.clear();
                    aborted.clear();
                }
            }
            RecordKind::Custom(_) => {
                // Scanned by their owners via `Wal::scan` directly.
            }
        }
        Ok(())
    })?;
    for ops in commits {
        out.redo.extend(ops);
    }
    out.committed_txns = commit_at.len();
    out.aborted_txns = aborted
        .iter()
        .filter(|t| !commit_at.contains_key(t))
        .count();
    out.next_txn_id = max_txn + 1;
    for (id, (token, ops)) in prepared {
        out.in_doubt.insert(token, ops);
        out.in_doubt_internal.insert(token, id);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{CrashStyle, SimDisk};
    use std::sync::Arc;

    fn wal() -> Wal {
        Wal::new(Arc::new(SimDisk::new()))
    }

    fn put(key: &[u8], value: &[u8]) -> WriteOp {
        WriteOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    /// A one-phase `Commit` record's payload.
    fn list(ops: &[WriteOp]) -> Vec<u8> {
        let mut buf = Vec::new();
        WriteOp::encode_list(ops, &mut buf);
        buf
    }

    /// A `Prepare` record's payload.
    fn prepare(token: u64, ops: &[WriteOp]) -> Vec<u8> {
        let mut buf = token.to_le_bytes().to_vec();
        WriteOp::encode_list(ops, &mut buf);
        buf
    }

    #[test]
    fn committed_txn_is_replayed() {
        let w = wal();
        w.append(1, RecordKind::Commit, &list(&[put(b"a", b"1")]))
            .unwrap();
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.committed_txns, 1);
        assert_eq!(out.redo, vec![put(b"a", b"1")]);
        assert!(out.in_doubt.is_empty());
    }

    #[test]
    fn unresolved_writes_are_dropped() {
        // The commit record never reached stable storage: its writes are
        // nowhere else in the log.
        let disk = SimDisk::new();
        let w = Wal::new(Arc::new(disk.clone()));
        w.append(1, RecordKind::Commit, &list(&[put(b"a", b"1")]))
            .unwrap();
        disk.crash(CrashStyle::DropVolatile);
        let out = replay(&w, ChainMark::default()).unwrap();
        assert!(out.redo.is_empty());
        assert_eq!(out.committed_txns, 0);
        assert!(out.in_doubt.is_empty());
    }

    #[test]
    fn aborted_txn_discarded() {
        let w = wal();
        w.append(1, RecordKind::Prepare, &prepare(1, &[put(b"a", b"1")]))
            .unwrap();
        w.append(1, RecordKind::Abort, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert!(out.redo.is_empty());
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.aborted_txns, 1);
    }

    #[test]
    fn prepared_txn_is_in_doubt_with_its_writes() {
        let w = wal();
        w.append(5, RecordKind::Prepare, &prepare(5, &[put(b"x", b"9")]))
            .unwrap();
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.in_doubt.len(), 1);
        assert_eq!(out.in_doubt[&5], vec![put(b"x", b"9")]);
        // The commit that resolves it carries nothing and applies them.
        w.append(5, RecordKind::Commit, &[]).unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.redo, vec![put(b"x", b"9")]);
    }

    #[test]
    fn interleaved_txns_apply_in_commit_order() {
        let w = wal();
        w.append(1, RecordKind::Prepare, &prepare(1, &[put(b"k", b"one")]))
            .unwrap();
        w.append(2, RecordKind::Commit, &list(&[put(b"k", b"two")]))
            .unwrap();
        w.append(1, RecordKind::Commit, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        // txn 2 committed first, so txn 1's write must come last.
        assert_eq!(out.redo, vec![put(b"k", b"two"), put(b"k", b"one")]);
    }

    #[test]
    fn a_retried_commit_replays_at_its_last_record() {
        // Txn 1's first commit record landed but its force failed; txn 2
        // committed over the same key; then txn 1's retry logged its commit
        // record again. The live store applied 2, then 1.
        let w = wal();
        let one = list(&[put(b"k", b"one")]);
        w.append(1, RecordKind::Commit, &one).unwrap();
        w.append(2, RecordKind::Commit, &list(&[put(b"k", b"two")]))
            .unwrap();
        w.append(1, RecordKind::Commit, &one).unwrap();
        // The same after a prepare: the retried commit record is empty
        // again, and still applies what the prepare logged.
        w.append(3, RecordKind::Prepare, &prepare(3, &[put(b"p", b"3")]))
            .unwrap();
        w.append(3, RecordKind::Commit, &[]).unwrap();
        w.append(4, RecordKind::Commit, &list(&[put(b"p", b"4")]))
            .unwrap();
        w.append(3, RecordKind::Commit, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.committed_txns, 4);
        assert_eq!(
            out.redo,
            vec![
                put(b"k", b"two"),
                put(b"k", b"one"),
                put(b"p", b"4"),
                put(b"p", b"3"),
            ]
        );
    }

    #[test]
    fn a_retried_commit_replays_only_its_last_attempt() {
        // The first attempt's force failed after its record landed; the
        // retry logged the write set again. Replaying both would run the
        // move twice: the second time `a` is gone, and `b` would keep the
        // put's value instead of the moved one.
        let w = wal();
        let mv = WriteOp::Move {
            from: b"a".to_vec(),
            to: b"b".to_vec(),
        };
        let attempt = list(&[put(b"b", b"put"), mv.clone()]);
        for _attempt in 0..2 {
            w.append(1, RecordKind::Commit, &attempt).unwrap();
        }
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.committed_txns, 1);
        assert_eq!(out.redo, vec![put(b"b", b"put"), mv]);
    }

    #[test]
    fn a_retried_prepare_is_in_doubt_once_with_its_write_set() {
        let w = wal();
        for _attempt in 0..2 {
            w.append(5, RecordKind::Prepare, &prepare(77, &[put(b"x", b"9")]))
                .unwrap();
        }
        w.sync().unwrap();
        let out = replay(&w, ChainMark::default()).unwrap();
        assert_eq!(out.in_doubt.len(), 1);
        assert_eq!(out.in_doubt[&77], vec![put(b"x", b"9")]);
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
        w.append(1, RecordKind::Commit, &list(&[put(b"a", b"covered")]))
            .unwrap();
        w.append(0, RecordKind::Checkpoint, &named).unwrap();
        w.append(2, RecordKind::Commit, &list(&[put(b"b", b"after")]))
            .unwrap();
        // A later attempt whose segment never became durable names a chain
        // that does not exist, and the record that opens a truncated log
        // names none.
        w.append(0, RecordKind::Checkpoint, &other).unwrap();
        w.append(0, RecordKind::Checkpoint, &[]).unwrap();
        w.sync().unwrap();
        let out = replay(&w, chain).unwrap();
        assert_eq!(out.committed_txns, 1);
        assert_eq!(out.redo, vec![put(b"b", b"after")]);
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
