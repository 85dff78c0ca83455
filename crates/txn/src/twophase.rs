//! The two-phase-commit decision row: the first participant commits it in
//! its own write set ([`crate::ResourceManager::commit_deciding`]) after the
//! others prepared, so the decision is durable exactly when that commit is.
//! An in-doubt participant commits if a recovered tree holds its row and
//! aborts if none does ([`resolve_in_doubt`]) — presumed abort, the paper's
//! §11 "forgetting" transaction manager. Rows are deleted by the manager's
//! next decision once every participant committed, and by a reopen.

use crate::error::TxnResult;
use crate::ids::{TxnId, TxnIdGen};
use rrq_storage::kv::KvStore;
use std::sync::Arc;

/// Key prefix of decision rows: `o/<txn-be>`, empty value.
pub const DECISION_PREFIX: &[u8] = b"o/";

/// Key of `txn`'s decision row.
pub fn decision_key(txn: TxnId) -> Vec<u8> {
    [DECISION_PREFIX, &txn.raw().to_be_bytes()].concat()
}

/// Buffer `txn`'s decision row, and the deletes of the rows of `forget`
/// (a logged no-op where there is none), in `txn`'s write set on `store`.
pub fn write_decision(store: &KvStore, txn: TxnId, forget: &[TxnId]) -> TxnResult<()> {
    store.put(txn.raw(), decision_key(txn), Vec::new())?;
    for &t in forget {
        store.delete(txn.raw(), decision_key(t))?;
    }
    Ok(())
}

/// Resolve the transactions `store` recovered in doubt: commit those whose
/// decision row one of `coordinators` holds, abort the rest. Returns
/// `(committed, aborted)`.
pub fn resolve_in_doubt(
    store: &KvStore,
    in_doubt: &[u64],
    coordinators: &[Arc<KvStore>],
) -> TxnResult<(usize, usize)> {
    let mut committed = 0;
    for &t in in_doubt {
        let key = decision_key(TxnId(t));
        let mut decided = false;
        for c in coordinators {
            decided |= c.get_with(None, &key, |row| row.is_some())?;
        }
        if decided {
            store.commit(t)?;
            committed += 1;
        } else {
            store.abort(t)?;
        }
    }
    Ok((committed, in_doubt.len() - committed))
}

/// Delete every decision row in `store` in one transaction whose token is
/// drawn from `ids`; with no rows, draw nothing and commit nothing. Returns
/// the number of rows deleted.
pub fn forget_decisions(store: &KvStore, ids: &TxnIdGen) -> TxnResult<usize> {
    let rows = store.scan_prefix(None, DECISION_PREFIX)?;
    if rows.is_empty() {
        return Ok(0);
    }
    let t = ids.next().raw();
    store.begin(t)?;
    for (k, _) in &rows {
        store.delete(t, k)?;
    }
    store.commit(t)?;
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_storage::disk::SimDisk;

    fn store() -> Arc<KvStore> {
        let (s, _) = KvStore::open(
            Arc::new(SimDisk::new()),
            Arc::new(SimDisk::new()),
            rrq_obs::Obs::default(),
        )
        .unwrap();
        s
    }

    #[test]
    fn a_decision_commit_writes_its_row_and_deletes_the_forgotten() {
        let s = store();
        for (t, forget) in [(1, vec![]), (2, vec![TxnId(1), TxnId(9)])] {
            s.begin(t).unwrap();
            write_decision(&s, TxnId(t), &forget).unwrap();
            s.commit(t).unwrap();
        }
        let rows = s.scan_prefix(None, DECISION_PREFIX).unwrap();
        assert_eq!(rows, vec![(decision_key(TxnId(2)), Vec::new())]);
    }

    #[test]
    fn the_sweep_commits_nothing_without_rows() {
        let s = store();
        let ids = TxnIdGen::new(1);
        let (len, counts) = (s.wal_len(), s.txn_counts());
        assert_eq!(forget_decisions(&s, &ids).unwrap(), 0);
        assert_eq!((s.wal_len(), s.txn_counts()), (len, counts));
        assert_eq!(ids.next(), TxnId(1), "no token drawn");

        for t in [3, 4] {
            s.begin(t).unwrap();
            write_decision(&s, TxnId(t), &[]).unwrap();
            s.commit(t).unwrap();
        }
        assert_eq!(forget_decisions(&s, &ids).unwrap(), 2);
        assert!(s.scan_prefix(None, DECISION_PREFIX).unwrap().is_empty());
    }
}
