//! # rrq-txn
//!
//! The transaction substrate: identifiers, a strict two-phase-locking lock
//! manager with waits-for deadlock detection, the [`rm::ResourceManager`]
//! participant interface, a durable two-phase-commit coordinator log, and the
//! [`manager::TxnManager`] that ties them together.
//!
//! The paper (§1) assumes transactions with "atomicity, serializability and
//! durability" as given; this crate supplies them for every store in the
//! workspace. Queue operations in `rrq-qm` and application-database updates
//! in the servers enlist in the *same* transaction through
//! [`rm::ResourceManager`], which is precisely what makes the paper's
//! dequeue–process–enqueue–commit server loop atomic (§5, Fig 5).
//!
//! Two details the paper calls out are modelled faithfully:
//!
//! * §6: a request may span database systems that "do not use the same
//!   transaction protocol" — the manager supports one-phase commit for a
//!   single participant and logged two-phase commit for several.
//! * §6: lock inheritance across the chained transactions of a
//!   multi-transaction request ([`lock::LockManager::transfer_locks`]).

pub mod deadlock;
pub mod error;
pub mod ids;
pub mod lock;
pub mod lockorder;
pub mod manager;
pub mod rm;
pub mod twophase;

pub use error::{TxnError, TxnResult};
pub use ids::{TxnId, TxnIdGen};
pub use lock::{LockKey, LockManager, LockMode, DEFAULT_LOCK_SHARDS};
pub use manager::{Txn, TxnManager};
pub use rm::{KvResource, ResourceManager};
pub use twophase::CoordinatorLog;
