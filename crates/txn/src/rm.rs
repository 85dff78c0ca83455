//! The participant interface for transactional stores.
//!
//! Anything that wants its updates to happen atomically with a queue
//! operation — the queue store itself, an application database, a saga log —
//! implements [`ResourceManager`] and is enlisted in a [`crate::Txn`]. The
//! paper's reply processor "is just another resource manager that
//! participates in the transaction" (§2); this trait is that notion made
//! concrete.

use crate::error::{TxnError, TxnResult};
use crate::ids::TxnId;
use rrq_storage::kv::KvStore;
use std::sync::Arc;

/// A two-phase-commit participant.
///
/// `prepare` must make the transaction's effects durable-but-undecided; after
/// it returns `Ok`, the participant guarantees it can `commit` or `abort`
/// even across a crash (surfacing the transaction as in-doubt on recovery).
pub trait ResourceManager: Send + Sync {
    /// Stable, unique participant name (used for logging and dedup).
    fn name(&self) -> &str;

    /// Join `txn`. Called once, before any work under the transaction.
    fn begin(&self, txn: TxnId) -> TxnResult<()>;

    /// Phase 1: harden the transaction's effects as in-doubt.
    fn prepare(&self, txn: TxnId) -> TxnResult<()>;

    /// Phase 2 (or one-phase fast path): make the effects permanent.
    fn commit(&self, txn: TxnId) -> TxnResult<()>;

    /// Coordinate `txn`, once every other participant prepared: commit it
    /// one-phase, forced, with [`crate::twophase::write_decision`]'s row and
    /// deletes in the write set. The default, for one that cannot, refuses.
    fn commit_deciding(&self, txn: TxnId, _forget: &[TxnId]) -> TxnResult<()> {
        let me = self.name();
        Err(TxnError::InvalidState(format!("{me} cannot decide {txn}")))
    }

    /// Undo the transaction's effects.
    fn abort(&self, txn: TxnId) -> TxnResult<()>;
}

/// Adapter making a [`KvStore`] a [`ResourceManager`].
pub struct KvResource {
    name: String,
    store: Arc<KvStore>,
}

impl KvResource {
    /// Wrap a store under a participant name.
    pub fn new(name: impl Into<String>, store: Arc<KvStore>) -> Self {
        KvResource {
            name: name.into(),
            store,
        }
    }
}

impl ResourceManager for KvResource {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&self, txn: TxnId) -> TxnResult<()> {
        Ok(self.store.begin(txn.raw())?)
    }

    fn prepare(&self, txn: TxnId) -> TxnResult<()> {
        Ok(self.store.prepare(txn.raw())?)
    }

    fn commit(&self, txn: TxnId) -> TxnResult<()> {
        Ok(self.store.commit(txn.raw())?)
    }

    fn commit_deciding(&self, txn: TxnId, forget: &[TxnId]) -> TxnResult<()> {
        crate::twophase::write_decision(&self.store, txn, forget)?;
        self.commit(txn)
    }

    fn abort(&self, txn: TxnId) -> TxnResult<()> {
        Ok(self.store.abort(txn.raw())?)
    }
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
    fn kv_resource_delegates_lifecycle() {
        let s = store();
        let rm = KvResource::new("db", Arc::clone(&s));
        assert_eq!(rm.name(), "db");
        rm.begin(TxnId(1)).unwrap();
        s.put(1, b"k", b"v").unwrap();
        rm.prepare(TxnId(1)).unwrap();
        rm.commit(TxnId(1)).unwrap();
        assert_eq!(s.get(None, b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn kv_resource_abort_path() {
        let s = store();
        let rm = KvResource::new("db", Arc::clone(&s));
        rm.begin(TxnId(2)).unwrap();
        s.put(2, b"k", b"v").unwrap();
        rm.abort(TxnId(2)).unwrap();
        assert_eq!(s.get(None, b"k").unwrap(), None);
    }
}
