//! Correctness tooling for the recoverable-request workspace (S18).
//!
//! The two runtime checkers are sinks of an `rrq_obs::Obs` handle: the
//! production crates emit through the handle their owner gave them and link
//! only `rrq-obs`; a test (or the explorer) attaches a checker to the handle
//! of the instance it watches.
//!
//! * [`race`] — a vector-clock happens-before race detector. The lock
//!   manager, the queue manager, and instrumented shared state report
//!   acquire/release and enqueue/dequeue edges; unordered conflicting
//!   accesses to a tracked cell are reported with both access stacks.
//! * [`protocol`] — the paper's Fig 1 (client) and Fig 5 (server)
//!   state-transition diagrams as data, plus a conformance checker that
//!   validates event traces emitted by `rrq-core`'s clerk and server loop.
//! * [`lint`] — a source-level lint pass over `crates/*/src` enforcing
//!   single-line workspace rules (no `unwrap` in recovery paths, no raw
//!   thread spawns, no wall-clock reads in simulation code). Run it, and
//!   the analyzer below over the same file list, with
//!   `cargo run -p rrq-check --bin rrq-lint`; each half is also enforced by
//!   a `cargo test` gate.
//! * [`analyze`] — the whole-workspace static analyzer: a
//!   per-function fact base driven by the checked-in `LOCKS.md` catalogue,
//!   enforcing the declared lock-acquisition order across crates, the
//!   durability-dominator rule for commit-point mutations, no blocking
//!   under `no-block` guards, and `Ordering::Relaxed` confined to
//!   `crates/obs`. It supersedes the old `commit-sync` and
//!   `shard-lock-order` lints.
//!
//! The hooks are compiled in permanently; on a handle with no checker
//! attached each costs one relaxed load and a predictable branch.

pub mod analyze;
pub mod clock;
pub mod lint;
pub mod protocol;
pub mod race;
