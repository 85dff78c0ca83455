//! Transaction-layer errors.

use rrq_storage::StorageError;
use std::fmt;

/// Result alias for the transaction crate.
pub type TxnResult<T> = Result<T, TxnError>;

/// Errors surfaced by the transaction manager and lock manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The requester was chosen as a deadlock victim and must abort.
    Deadlock {
        /// The victim transaction.
        victim: u64,
    },
    /// A lock wait exceeded its timeout.
    LockTimeout,
    /// The transaction is not in a state that allows the operation.
    InvalidState(String),
    /// A participant failed to prepare; the transaction was aborted.
    PrepareFailed(String),
    /// A storage error bubbled up from a participant or the coordinator log.
    Storage(StorageError),
    /// The transaction was already aborted (e.g. by a cancellation).
    Aborted,
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Deadlock { victim } => write!(f, "deadlock detected; victim txn {victim}"),
            TxnError::LockTimeout => write!(f, "lock wait timed out"),
            TxnError::InvalidState(msg) => write!(f, "invalid transaction state: {msg}"),
            TxnError::PrepareFailed(msg) => write!(f, "prepare failed: {msg}"),
            TxnError::Storage(e) => write!(f, "storage error: {e}"),
            TxnError::Aborted => write!(f, "transaction aborted"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<StorageError> for TxnError {
    fn from(e: StorageError) -> Self {
        TxnError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: TxnError = StorageError::DeviceFailed.into();
        assert!(matches!(e, TxnError::Storage(_)));
        assert!(TxnError::Deadlock { victim: 3 }.to_string().contains('3'));
        assert!(TxnError::LockTimeout.to_string().contains("timed out"));
    }
}
