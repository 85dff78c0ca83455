//! # rrq-core
//!
//! The paper's contribution: fault-tolerant request/reply processing built on
//! recoverable queues ("Implementing Recoverable Requests Using Queues",
//! Bernstein, Hsu & Mann, SIGMOD 1990).
//!
//! The crate implements every protocol in the paper:
//!
//! * **The Client Model** (§3, Figs 1–2): [`clerk::Clerk`] exposes
//!   `Connect` / `Disconnect` / `Send` / `Receive` / `Rereceive` (plus the §5
//!   `Transceive` merge and §7 `Cancel-last-request`), and
//!   [`client::ClientRuntime`] is the fault-tolerant sequential client
//!   program with its connect-time resynchronization. Together they provide
//!   the paper's three guarantees — *request/reply matching*, *exactly-once
//!   request processing*, and *at-least-once reply processing* — verified by
//!   the `rrq-sim` oracles under crash and partition schedules.
//! * **The System Model** (§5, Figs 4–5): [`server::Server`] runs the
//!   dequeue → process → enqueue-reply → commit loop; multiple servers share
//!   one request queue for load sharing (§1). A spawned server commits in
//!   epochs: one log force covers every request it served back to back.
//! * **Multi-transaction requests** (§6, Fig 6): [`pipeline`] chains stage
//!   servers over intermediate queues, carrying request state in the
//!   elements; request-level serializability is available via §6 lock
//!   inheritance.
//! * **Cancellation** (§7): in-flight kill via the QM's `KillElement`
//!   ([`clerk::Clerk::cancel_last_request`]) and post-commit compensation via
//!   [`saga`].
//! * **Interactive requests** (§8, Fig 7): the pseudo-conversational mapping
//!   ([`interactive`]) and the single-transaction conversation with logged,
//!   replayable intermediate I/O ([`conversation`]).
//! * **Testable devices and reply processing** (§3): [`device`] has the
//!   ticket-printer with readable state that makes reply processing
//!   exactly-once, and duplicate-detecting displays for the idempotent case.
//! * **Clerk↔QM transport** (§2, §5): the clerk runs against any
//!   [`api::QmApi`] — in-process ([`api::LocalQm`]) or across the simulated
//!   network ([`remote::RemoteQm`] / [`remote::QmRpcServer`]), where `Send`
//!   may use acknowledged RPC or the §5 one-way-message optimization.

pub mod api;
pub mod clerk;
pub mod client;
pub mod conversation;
pub mod device;
pub mod error;
pub mod interactive;
pub mod pipeline;
pub mod remote;
pub mod request;
pub mod rid;
pub mod route;
pub mod saga;
pub mod server;
pub mod tagcodec;
pub mod threads;

pub use api::{LocalQm, QmApi};
pub use clerk::{Clerk, ClerkConfig, ConnectInfo, SendMode};
pub use client::{ClientRuntime, ResyncAction};
pub use error::{CoreError, CoreResult};
pub use request::{Reply, ReplyStatus, Request};
pub use rid::Rid;
pub use route::RoutedQm;
pub use server::{HandlerError, HandlerOutcome, Server, ServerConfig};
