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
//! An incarnation has one attempt. A log that fails stops ([`crate::wal`]),
//! so no commit point is retried in the incarnation that failed, and a
//! failed commit's record, if the device kept it, is the transaction's only
//! one: replaying it is what decides the commit. A second `Commit` or
//! `Prepare` for one incarnation is corruption, as a stray data op is.
//!
//! A store has one log, and a commit point appends its `Commit` record under
//! the log's append latch, so the order in which the scan meets commit
//! records *is* commit order: [`replay`] hands transactions' operations over
//! in the order of their commit records and needs no sort. A
//! checkpoint appends a `Checkpoint` record naming the chain its segment will
//! complete, forces the log, makes the segment durable, and only then resets
//! the log with one atomic device swap, so a crash leaves either the reset
//! log or the whole one — and in the whole one, the record that names the
//! chain [`replay`] is handed marks how far that chain covers it. Replay
//! starts there: a move reads the tree it is applied to, so replaying it over
//! a chain that already holds its effect would move something else.
//!
//! [`replay`] reads the log twice. The first pass checks every frame and
//! every op list in place — before the chain's mark too, so a corrupt record
//! fails the open before anything is applied — and decodes only `Prepare`
//! payloads. It learns where replay starts and the transactions' fates. The
//! second pass scans from the start and decodes the ops of each `Commit`
//! record one at a time into the caller's sink, so a reopen holds one op,
//! not the log tail.
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
use crate::kv::{OpRef, WriteOp};
use crate::wal::{RecordKind, Wal};
use std::collections::{HashMap, HashSet};

/// What the redo pass found in the log, besides the operations it handed
/// to its sink.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Redo operations handed to the sink.
    pub replayed: usize,
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

impl ReplayOutcome {
    /// The summary [`crate::kv::KvStore::open`] returns.
    pub fn report(&self) -> RecoveryReport {
        let mut in_doubt: Vec<u64> = self.in_doubt.keys().copied().collect();
        in_doubt.sort_unstable();
        RecoveryReport {
            replayed: self.replayed,
            committed_txns: self.committed_txns,
            aborted_txns: self.aborted_txns,
            in_doubt,
        }
    }
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

/// What the first pass learns: where replay starts and what it applies.
#[derive(Default)]
struct Plan {
    /// The `Checkpoint` record naming the chain, or 0.
    start: u64,
    /// Incarnations with a `Commit` record since `start`.
    committed: HashSet<u64>,
    /// What the prepares that an empty `Commit` resolves logged, by
    /// incarnation id: that record applies it.
    resolved: HashMap<u64, Vec<WriteOp>>,
    /// Prepared, no outcome yet: incarnation id → (caller token, write set).
    prepared: HashMap<u64, (u64, Vec<WriteOp>)>,
    aborted: HashSet<u64>,
    max_txn: u64,
}

/// A second `Commit` or `Prepare` for incarnation `txn`: the log holds one
/// attempt per incarnation.
fn second(kind: RecordKind, txn: u64) -> StorageError {
    StorageError::Decode(format!("a second {kind:?} record for incarnation {txn}"))
}

/// The error of the record at `lsn`: the CRC vouches for its bytes, so a
/// payload that does not decode is corruption, not a torn tail.
fn corrupt(lsn: u64) -> impl Fn(StorageError) -> StorageError {
    move |e| StorageError::Corrupt {
        offset: lsn,
        detail: e.to_string(),
    }
}

/// Redo the log over the checkpoint chain `chain` names, handing every
/// committed operation to `apply` in commit order, and classify every
/// transaction's fate. A `Checkpoint` record naming `chain` says that chain
/// covers the log up to there, and replay starts over from that record (the
/// default mark names no chain). Every record is checked before the first
/// op is handed over: a corrupt log fails without calling `apply`.
pub fn replay(
    wal: &Wal,
    chain: ChainMark,
    mut apply: impl FnMut(WriteOp),
) -> StorageResult<ReplayOutcome> {
    let mut plan = Plan::default();
    let valid_end = wal.scan_with(0, |lsn, txn, kind, payload| {
        plan.max_txn = plan.max_txn.max(txn);
        let mut r = Reader::new(payload);
        match kind {
            RecordKind::KvPut | RecordKind::KvDelete | RecordKind::KvMove => {
                let stray = format!("a {kind:?} record outside a commit point");
                return Err(corrupt(lsn)(StorageError::Decode(stray)));
            }
            RecordKind::Prepare => {
                let token = r.u64().map_err(corrupt(lsn))?;
                let ops = WriteOp::decode_list(&mut r).map_err(corrupt(lsn))?;
                let again = plan.committed.contains(&txn);
                if again || plan.prepared.insert(txn, (token, ops)).is_some() {
                    return Err(corrupt(lsn)(second(kind, txn)));
                }
            }
            RecordKind::Commit => {
                OpRef::decode_each(&mut r, |_| {}).map_err(corrupt(lsn))?;
                if !plan.committed.insert(txn) {
                    return Err(corrupt(lsn)(second(kind, txn)));
                }
                // Its own op list, or else what its prepare logged.
                let prepared = plan.prepared.remove(&txn);
                if let (true, Some((_, ops))) = (payload.is_empty(), prepared) {
                    plan.resolved.insert(txn, ops);
                }
            }
            RecordKind::Abort => {
                plan.prepared.remove(&txn);
                plan.aborted.insert(txn);
            }
            RecordKind::Checkpoint => {
                // No transaction straddles a checkpoint: it runs with every
                // commit point shut out and refuses while one is prepared.
                if chain.named_by(payload) {
                    plan.start = lsn;
                    plan.committed.clear();
                    plan.resolved.clear();
                    plan.prepared.clear();
                    plan.aborted.clear();
                }
            }
            RecordKind::Custom(_) => {
                // Scanned by their owners via `Wal::scan_with` directly.
            }
        }
        Ok(())
    })?;

    let mut replayed = 0;
    let mut sink = |op: WriteOp| {
        replayed += 1;
        apply(op);
    };
    wal.scan_with(plan.start, |lsn, txn, kind, payload| {
        if kind != RecordKind::Commit {
            return Ok(());
        }
        if let Some(ops) = plan.resolved.remove(&txn) {
            ops.into_iter().for_each(&mut sink);
            return Ok(());
        }
        OpRef::decode_each(&mut Reader::new(payload), |op| sink(op.into_op())).map_err(corrupt(lsn))
    })?;

    let aborted_txns = plan.aborted.difference(&plan.committed).count();
    let mut out = ReplayOutcome {
        replayed,
        committed_txns: plan.committed.len(),
        aborted_txns,
        valid_end,
        next_txn_id: plan.max_txn + 1,
        ..ReplayOutcome::default()
    };
    for (id, (token, ops)) in plan.prepared {
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

    /// Replay `w` over `chain`, collecting the ops the sink is handed.
    fn redo(w: &Wal, chain: ChainMark) -> (Vec<WriteOp>, ReplayOutcome) {
        let mut ops = Vec::new();
        let out = replay(w, chain, |op| ops.push(op)).unwrap();
        assert_eq!(out.replayed, ops.len());
        (ops, out)
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
        let (ops, out) = redo(&w, ChainMark::default());
        assert_eq!(out.committed_txns, 1);
        assert_eq!(ops, vec![put(b"a", b"1")]);
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
        let (ops, out) = redo(&w, ChainMark::default());
        assert!(ops.is_empty());
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
        let (ops, out) = redo(&w, ChainMark::default());
        assert!(ops.is_empty());
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.aborted_txns, 1);
    }

    #[test]
    fn prepared_txn_is_in_doubt_with_its_writes() {
        let w = wal();
        w.append(5, RecordKind::Prepare, &prepare(5, &[put(b"x", b"9")]))
            .unwrap();
        w.sync().unwrap();
        let (ops, out) = redo(&w, ChainMark::default());
        assert!(ops.is_empty());
        assert_eq!(out.in_doubt.len(), 1);
        assert_eq!(out.in_doubt[&5], vec![put(b"x", b"9")]);
        // The commit that resolves it carries nothing and applies them.
        w.append(5, RecordKind::Commit, &[]).unwrap();
        let (ops, out) = redo(&w, ChainMark::default());
        assert!(out.in_doubt.is_empty());
        assert_eq!(ops, vec![put(b"x", b"9")]);
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
        let (ops, _) = redo(&w, ChainMark::default());
        // txn 2 committed first, so txn 1's write must come last.
        assert_eq!(ops, vec![put(b"k", b"two"), put(b"k", b"one")]);
    }

    #[test]
    fn a_second_commit_or_prepare_for_one_incarnation_is_corrupt() {
        // A log that fails stops, so no incarnation logs a commit point twice:
        // a second record is no retry to replay but a corrupt log.
        let one = list(&[put(b"k", b"one")]);
        let disk = SimDisk::new();
        let w = Wal::new(Arc::new(disk.clone()));
        w.append(1, RecordKind::Commit, &one).unwrap();
        let again = w.append(1, RecordKind::Commit, &one).unwrap();
        let ckpt = Arc::new(SimDisk::new());
        let opened = crate::kv::KvStore::open(Arc::new(disk), ckpt, rrq_obs::Obs::default());
        let opened = opened.map(|_| ());
        assert!(
            matches!(opened, Err(StorageError::Corrupt { offset, .. }) if offset == again),
            "{opened:?}"
        );
        let w = wal();
        w.append(5, RecordKind::Prepare, &prepare(77, &[])).unwrap();
        w.append(5, RecordKind::Commit, &[]).unwrap();
        let again = w.append(5, RecordKind::Prepare, &prepare(77, &[])).unwrap();
        let opened = replay(&w, ChainMark::default(), |_| panic!("applied"));
        assert!(
            matches!(opened, Err(StorageError::Corrupt { offset, .. }) if offset == again),
            "{opened:?}"
        );
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
        let (ops, out) = redo(&w, chain);
        assert_eq!(out.committed_txns, 1);
        assert_eq!(ops, vec![put(b"b", b"after")]);
        assert_eq!(out.next_txn_id, 3, "ids stay unique past the covered part");
        // Over no chain, or another one, the whole log replays.
        assert_eq!(redo(&w, ChainMark::default()).0.len(), 2);
    }

    #[test]
    fn custom_and_checkpoint_records_ignored() {
        let w = wal();
        w.append(0, RecordKind::Checkpoint, &[]).unwrap();
        w.append(9, RecordKind::Custom(0x81), b"opaque").unwrap();
        w.sync().unwrap();
        let (ops, out) = redo(&w, ChainMark::default());
        assert!(ops.is_empty());
        assert!(out.in_doubt.is_empty());
    }
}
