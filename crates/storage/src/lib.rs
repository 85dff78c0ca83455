//! # rrq-storage
//!
//! The storage substrate for the recoverable-request system: a simulated
//! stable-storage device with crash semantics, a checksummed write-ahead log,
//! and a recoverable main-memory key-value store.
//!
//! The paper ("Implementing Recoverable Requests Using Queues", Bernstein,
//! Hsu & Mann, SIGMOD 1990) observes in §10 that a queue manager "is a type
//! of database system" whose data is mostly short-lived, so "queues can be
//! managed as a main memory database" — but "there is still the need to log
//! updates". This crate implements exactly that design point:
//!
//! * [`disk`] — the [`disk::Disk`] trait plus [`disk::SimDisk`], an in-memory
//!   stable store whose unsynced writes are lost on [`disk::SimDisk::crash`],
//!   giving deterministic, fast crash testing.
//! * [`wal`] — an append-only write-ahead log with CRC-32-framed records,
//!   scan-until-corruption recovery, and the durable watermark whose
//!   [`wal::Wal::force_through`] batches concurrent forces into one device
//!   sync per group.
//! * [`kv`] — a transactional main-memory B-tree keyed store that buffers
//!   uncommitted writes per transaction, forces log records at commit, and
//!   rebuilds itself from checkpoint + log on restart; without a log behind
//!   it ([`kv::KvStore::volatile`]) it is the store of volatile queues.
//! * [`checkpoint`] / [`recovery`] — snapshotting and the redo pass.
//! * [`codec`] / [`checksum`] — the self-contained binary record format.
//!
//! Everything is deterministic by default: no background threads, and the
//! only wall-clock timing is opt-in (the benchmark-only
//! [`disk::LatencyDisk`] sync cost).

pub mod checkpoint;
pub mod checksum;
pub mod codec;
pub mod disk;
pub mod error;
pub mod kv;
pub mod recovery;
pub mod wal;

pub use checkpoint::{load_chain, CheckpointChain};
pub use disk::{Disk, LatencyDisk, SimDisk};
pub use error::{StorageError, StorageResult};
pub use kv::{IntoBytes, KeyHasher, KvStore, KvTxn, WriteOp};
pub use recovery::{replay, RecoveryReport, ReplayOutcome};
pub use wal::{GroupCommitStats, LogRecord, RecordKind, Wal};
