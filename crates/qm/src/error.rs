//! Queue-manager errors.

use rrq_storage::StorageError;
use rrq_txn::TxnError;
use std::fmt;

/// Result alias for the queue manager.
pub type QmResult<T> = Result<T, QmError>;

/// Errors raised by queue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QmError {
    /// The named queue does not exist in this repository.
    NoSuchQueue(String),
    /// A queue with this name already exists.
    QueueExists(String),
    /// The queue exists but is stopped (data-definition stop, §4.1).
    QueueStopped(String),
    /// Dequeue found no (matching) element and blocking was not requested or
    /// timed out.
    Empty(String),
    /// No element with this eid exists (live or retained).
    NoSuchElement(u64),
    /// The registrant is not registered with the queue.
    NotRegistered(String),
    /// The element was dequeued by a transaction that has been marked for
    /// cancellation (§7) — the transaction must abort.
    Cancelled(u64),
    /// Queue redirection formed a cycle.
    RedirectCycle(String),
    /// Transaction-layer failure (deadlock, timeout, ...).
    Txn(TxnError),
    /// Storage-layer failure.
    Storage(StorageError),
    /// API misuse or internal inconsistency.
    Invalid(String),
}

impl fmt::Display for QmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QmError::NoSuchQueue(q) => write!(f, "no such queue: {q}"),
            QmError::QueueExists(q) => write!(f, "queue already exists: {q}"),
            QmError::QueueStopped(q) => write!(f, "queue is stopped: {q}"),
            QmError::Empty(q) => write!(f, "queue empty: {q}"),
            QmError::NoSuchElement(e) => write!(f, "no such element: eid {e}"),
            QmError::NotRegistered(r) => write!(f, "not registered: {r}"),
            QmError::Cancelled(e) => write!(f, "element {e} cancelled; transaction must abort"),
            QmError::RedirectCycle(q) => write!(f, "queue redirection cycle at {q}"),
            QmError::Txn(e) => write!(f, "transaction error: {e}"),
            QmError::Storage(e) => write!(f, "storage error: {e}"),
            QmError::Invalid(m) => write!(f, "invalid queue operation: {m}"),
        }
    }
}

impl std::error::Error for QmError {}

impl From<TxnError> for QmError {
    fn from(e: TxnError) -> Self {
        QmError::Txn(e)
    }
}

impl From<StorageError> for QmError {
    fn from(e: StorageError) -> Self {
        QmError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: QmError = TxnError::LockTimeout.into();
        assert!(matches!(e, QmError::Txn(_)));
        let e: QmError = StorageError::DeviceFailed.into();
        assert!(matches!(e, QmError::Storage(_)));
        assert!(QmError::Empty("req".into()).to_string().contains("req"));
        assert!(QmError::Cancelled(4).to_string().contains("abort"));
    }
}
