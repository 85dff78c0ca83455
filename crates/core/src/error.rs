//! Core-layer errors.

use crate::rid::Rid;
use rrq_net::NetError;
use rrq_qm::QmError;
use rrq_storage::StorageError;
use rrq_txn::TxnError;
use std::fmt;

/// Result alias for the core crate.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors surfaced by the request-processing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The clerk is not connected (call `connect` first).
    NotConnected,
    /// Protocol misuse: e.g. `Send` while a request is outstanding — the
    /// Client Model offers requests one-at-a-time (§3).
    Protocol(String),
    /// Request-reply matching failed: the reply received answers another
    /// request (§3).
    ReplyMismatch {
        /// Rid of the request the reply should answer.
        expected: Rid,
        /// Rid the reply carries.
        got: Rid,
    },
    /// A reply (or request) failed to decode.
    Malformed(String),
    /// There is nothing to rereceive.
    NoReply,
    /// Cancellation failed because the request already progressed too far.
    TooLateToCancel,
    /// Queue-manager failure.
    Qm(QmError),
    /// Network failure (remote clerk↔QM only).
    Net(NetError),
    /// Transaction failure.
    Txn(TxnError),
    /// Storage failure.
    Storage(StorageError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotConnected => write!(f, "client is not connected"),
            CoreError::Protocol(m) => write!(f, "protocol violation: {m}"),
            CoreError::ReplyMismatch { expected, got } => {
                write!(f, "request-reply mismatch: expected {expected}, got {got}")
            }
            CoreError::Malformed(m) => write!(f, "malformed message: {m}"),
            CoreError::NoReply => write!(f, "no reply available to rereceive"),
            CoreError::TooLateToCancel => write!(f, "request already processed; cannot cancel"),
            CoreError::Qm(e) => write!(f, "queue manager: {e}"),
            CoreError::Net(e) => write!(f, "network: {e}"),
            CoreError::Txn(e) => write!(f, "transaction: {e}"),
            CoreError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<QmError> for CoreError {
    fn from(e: QmError) -> Self {
        CoreError::Qm(e)
    }
}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
    }
}

impl From<TxnError> for CoreError {
    fn from(e: TxnError) -> Self {
        CoreError::Txn(e)
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: CoreError = QmError::Empty("q".into()).into();
        assert!(matches!(e, CoreError::Qm(_)));
        let e: CoreError = NetError::Timeout.into();
        assert!(matches!(e, CoreError::Net(_)));
        let e: CoreError = TxnError::LockTimeout.into();
        assert!(matches!(e, CoreError::Txn(_)));
        assert!(CoreError::NotConnected
            .to_string()
            .contains("not connected"));
    }
}
