//! # rrq-qm
//!
//! The recoverable queue manager — the paper's §4 abstraction, implemented in
//! full:
//!
//! * **Objects** (§4.1): [`repository::Repository`] holds named
//!   [`element::Element`]-bearing queues; every element has a unique
//!   [`element::Eid`]. Data-definition operations (create / destroy / start /
//!   stop queues) live on the repository.
//! * **Data manipulation** (§4.2, Fig 3): `Enqueue`, `Dequeue`, `Read`, and
//!   §7's `KillElement` on [`ops::QueueManager`]. All operations are
//!   all-or-nothing and serializable; when invoked inside a transaction they
//!   obey transaction semantics (an aborted dequeue returns the element; an
//!   element dequeued by *n* successively-aborting transactions moves to the
//!   queue's **error queue** on the n-th abort).
//! * **Persistent registration with operation tags** (§4.3) — the paper's
//!   claimed-novel feature: [`registration`] keeps, per registrant, a stable
//!   record of the last tagged operation (tag, eid, element copy) that
//!   `Register` returns on reconnect; the tag update commits atomically with
//!   the tagged operation.
//! * **Extensions** the paper discusses: priority dequeue and content-based
//!   retrieval ([`retrieval`]), blocking dequeue via "notify locks"
//!   ([`notify`], §10), skip-locked vs. strict-FIFO ordering (§10's anomaly
//!   discussion), queue redirection and alert thresholds (§9, DECintact),
//!   volatile queues (§10), and the §6 trigger mechanism for fork/join of
//!   concurrent requests ([`trigger`]).
//!
//! The queue manager is itself a [`rrq_txn::ResourceManager`], so queue
//! operations commit or abort atomically with application-database updates
//! made in the same transaction — the property every protocol in the paper
//! leans on.

pub mod element;
pub mod error;
pub mod keys;
pub mod meta;
pub mod notify;
pub mod ops;
pub mod qindex;
pub mod registration;
pub mod repository;
pub mod retrieval;
pub mod route;
pub mod trigger;

pub use element::{Eid, Element, Priority};
pub use error::{QmError, QmResult};
pub use meta::{OrderingMode, QueueMeta};
pub use ops::{DequeueOptions, EnqueueOptions, QueueHandle, QueueManager};
pub use registration::Registration;
pub use repository::{RepoDisks, Repository};
pub use retrieval::Predicate;
pub use route::{partition_of, MAX_REPO_PARTITIONS};
