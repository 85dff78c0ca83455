//! Error types shared by the storage layer.

use std::fmt;

/// Result alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage substrate.
///
/// The variants deliberately distinguish *corruption* (checksum / framing
/// damage found during recovery, which is tolerated at the log tail and fatal
/// elsewhere) from *logic* errors (misuse of the API) and *capacity* faults
/// injected by the simulated disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A read past the durable end of the device.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Current device size.
        size: u64,
    },
    /// A log record failed its CRC or framing check.
    ///
    /// During recovery this is expected at the tail (a torn write from the
    /// crash) and the scan simply stops; anywhere else it indicates real
    /// corruption.
    Corrupt {
        /// Byte offset of the bad record.
        offset: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// A decode failed because the buffer was truncated or malformed.
    Decode(String),
    /// The simulated device refused the operation (injected fault or the
    /// device was explicitly failed).
    DeviceFailed,
    /// An earlier append or sync failed the log, until its store reopens.
    LogFailed,
    /// A transactional operation referenced an unknown transaction token.
    UnknownTxn(u64),
    /// The operation conflicts with the store's state (e.g. double commit).
    InvalidState(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfBounds { offset, len, size } => write!(
                f,
                "read out of bounds: offset {offset} len {len} beyond device size {size}"
            ),
            StorageError::Corrupt { offset, detail } => {
                write!(f, "corrupt record at offset {offset}: {detail}")
            }
            StorageError::Decode(msg) => write!(f, "decode error: {msg}"),
            StorageError::DeviceFailed => write!(f, "storage device failed"),
            StorageError::LogFailed => write!(f, "log failed earlier; reopen the store"),
            StorageError::UnknownTxn(t) => write!(f, "unknown storage transaction token {t}"),
            StorageError::InvalidState(msg) => write!(f, "invalid storage state: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::OutOfBounds {
            offset: 10,
            len: 4,
            size: 8,
        };
        assert!(e.to_string().contains("out of bounds"));
        let e = StorageError::Corrupt {
            offset: 0,
            detail: "bad crc".into(),
        };
        assert!(e.to_string().contains("bad crc"));
        let e = StorageError::UnknownTxn(7);
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(StorageError::DeviceFailed, StorageError::DeviceFailed);
        assert_ne!(
            StorageError::Decode("a".into()),
            StorageError::Decode("b".into())
        );
    }
}
