//! Helpers shared by the storage integration tests.

use rrq_storage::wal::{LogRecord, Wal};
use rrq_storage::StorageResult;

/// Every valid record of `wal` from `start`, copied out of the scan, and the
/// offset where valid data ends.
pub fn records(wal: &Wal, start: u64) -> StorageResult<(Vec<LogRecord>, u64)> {
    let mut records = Vec::new();
    let valid_end = wal.scan_with(start, |lsn, txn, kind, payload| {
        records.push(LogRecord {
            lsn,
            txn,
            kind,
            payload: payload.to_vec(),
        });
        Ok(())
    })?;
    Ok((records, valid_end))
}
