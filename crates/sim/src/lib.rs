//! # rrq-sim
//!
//! The failure-injection harness and correctness oracles.
//!
//! The paper argues (§2, §3, §5) that its protocols preserve request/reply
//! matching, exactly-once request processing, and at-least-once reply
//! processing "despite failures and recoveries". This crate makes those
//! arguments executable:
//!
//! * [`driver::ClientCrashDriver`] runs the Fig 2 client program — the
//!   shipped [`rrq_core::client::ClientRuntime`], whose `resync` is the one
//!   copy of Fig 2 lines 2–11 — with crashes injected between its steps at
//!   every protocol state of Fig 1 (after Send, after Receive before
//!   processing, after processing) and reports how resynchronization
//!   resolved each one.
//! * [`node::ServerNodeSim`] crash-restarts a whole server node — threads
//!   stopped, unsynced storage lost, repository recovered from log — under
//!   load.
//! * [`oracle`] — the checkers: a store-backed [`oracle::EffectLedger`] that
//!   counts committed handler effects per rid (exactly-once = every count is
//!   exactly 1), and a [`oracle::ReplyMatcher`] for request/reply matching
//!   and at-least-once reply processing.
//! * [`schedule`] — deterministic crash schedules from a seed.
//! * [`script`] / [`explorer`] / [`shrink`] — the deterministic
//!   fault-schedule explorer: seeded [`script::FaultScript`]s composing
//!   client crashes, server crashes with torn writes, partitions, and
//!   delays; [`explorer::run_sweep`] runs the bank workload under each
//!   script, its client a `ClientRuntime` as well, and checks the full
//!   oracle battery, with a reproducible trace
//!   digest per script; [`shrink::shrink`] minimizes failing scripts into
//!   replayable regression files.

pub mod driver;
pub mod explorer;
pub mod node;
pub mod oracle;
pub mod schedule;
pub mod script;
pub mod shrink;

pub use driver::{ClientCrashDriver, CrashPoint, DriverReport};
pub use explorer::{run_script, run_sweep, ExplorerConfig, InjectedBug, RunOutcome, SweepReport};
pub use node::ServerNodeSim;
pub use oracle::{EffectLedger, ReplyMatcher};
pub use script::{FaultEvent, FaultScript, PartitionDirection};
pub use shrink::{shrink, ShrinkReport};
