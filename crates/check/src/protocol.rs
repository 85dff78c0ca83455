//! Fig 1 / Fig 5 protocol conformance checking.
//!
//! The paper specifies the client as a state machine (Fig 1: Send →
//! Receive → process → commit, plus the Fig 2 resynchronization paths) and
//! the server as the dequeue → process → enqueue-reply → commit loop of
//! Fig 5. This module encodes both transition relations **as data**
//! ([`CLIENT_TABLE`], [`SERVER_TABLE`]) and provides:
//!
//! * a [`Conformance`] checker — a [`ProtocolSink`] attached to an
//!   `rrq_obs::Obs` handle, whose `client_event` / `server_event` hooks
//!   `rrq_core`'s clerk and server loop call at each transition — that
//!   replays the events against the tables (plus the payload guards the
//!   tables cannot express, e.g. "the reply's rid must match the
//!   outstanding request") and records every violation together with the
//!   offending entity's full event trace.
//!
//! A `Connect` is legal from *any* state: a crash is indistinguishable
//! from a slow client, so the protocol's only entry point after failure is
//! resynchronization. The checker validates the resync triple against the
//! history it has itself observed: `s_rid` must be the last acknowledged
//! `Send` and `r_rid` the last delivered reply (both `None` after a clean
//! `Disconnect`, which destroys the registration).

use rrq_obs::Obs;
pub use rrq_obs::{ClientEvent, ProtocolSink, ServerEvent};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

// ---------------------------------------------------------------------
// Event kinds
// ---------------------------------------------------------------------

/// Client event discriminant, used in [`CLIENT_TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEventKind {
    /// See [`ClientEvent::Connect`].
    Connect,
    /// See [`ClientEvent::Send`].
    Send,
    /// See [`ClientEvent::Receive`].
    Receive,
    /// See [`ClientEvent::Rereceive`].
    Rereceive,
    /// See [`ClientEvent::Disconnect`].
    Disconnect,
    /// See [`ClientEvent::OpFailed`].
    OpFailed,
}

impl From<&ClientEvent> for ClientEventKind {
    fn from(event: &ClientEvent) -> Self {
        match event {
            ClientEvent::Connect { .. } => ClientEventKind::Connect,
            ClientEvent::Send { .. } => ClientEventKind::Send,
            ClientEvent::Receive { .. } => ClientEventKind::Receive,
            ClientEvent::Rereceive { .. } => ClientEventKind::Rereceive,
            ClientEvent::Disconnect => ClientEventKind::Disconnect,
            ClientEvent::OpFailed { .. } => ClientEventKind::OpFailed,
        }
    }
}

/// Server event discriminant, used in [`SERVER_TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerEventKind {
    /// See [`ServerEvent::Dequeue`].
    Dequeue,
    /// See [`ServerEvent::DropMalformed`].
    DropMalformed,
    /// See [`ServerEvent::Reply`].
    Reply,
    /// See [`ServerEvent::Forward`].
    Forward,
    /// See [`ServerEvent::Commit`].
    Commit,
    /// See [`ServerEvent::Abort`].
    Abort,
}

impl From<&ServerEvent> for ServerEventKind {
    fn from(event: &ServerEvent) -> Self {
        match event {
            ServerEvent::Dequeue { .. } => ServerEventKind::Dequeue,
            ServerEvent::DropMalformed => ServerEventKind::DropMalformed,
            ServerEvent::Reply { .. } => ServerEventKind::Reply,
            ServerEvent::Forward { .. } => ServerEventKind::Forward,
            ServerEvent::Commit => ServerEventKind::Commit,
            ServerEvent::Abort => ServerEventKind::Abort,
        }
    }
}

// ---------------------------------------------------------------------
// Transition tables (the Fig 1 / Fig 5 diagrams as data)
// ---------------------------------------------------------------------

/// Fig 1 client states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// No registration (before first `Connect` or after `Disconnect`).
    Disconnected,
    /// Connected with no request in flight.
    Fresh,
    /// A request was sent; its reply is not yet delivered.
    Outstanding,
    /// The last request's reply was delivered.
    Delivered,
}

/// Fig 5 server states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// Blocked on `Dequeue`.
    Waiting,
    /// A request is being processed under the server transaction.
    Processing,
    /// The reply (or forward) is enqueued; only commit/abort remain.
    ReadyToCommit,
    /// Consuming a malformed element.
    Dropping,
}

/// Fig 1 transition relation. A target of `None` means the next state is
/// computed from the event payload: `Connect`, whose resync triple decides
/// between `Fresh`, `Outstanding`, and `Delivered` (Fig 2 lines 2–11), and
/// `OpFailed`, which leaves the state unchanged.
pub const CLIENT_TABLE: &[(ClientState, ClientEventKind, Option<ClientState>)] = &[
    // Connect is the recovery entry point: legal from every state.
    (ClientState::Disconnected, ClientEventKind::Connect, None),
    (ClientState::Fresh, ClientEventKind::Connect, None),
    (ClientState::Outstanding, ClientEventKind::Connect, None),
    (ClientState::Delivered, ClientEventKind::Connect, None),
    // A network-failed operation can happen anywhere and moves nothing.
    (ClientState::Disconnected, ClientEventKind::OpFailed, None),
    (ClientState::Fresh, ClientEventKind::OpFailed, None),
    (ClientState::Outstanding, ClientEventKind::OpFailed, None),
    (ClientState::Delivered, ClientEventKind::OpFailed, None),
    // One request at a time: Send only with no reply pending.
    (
        ClientState::Fresh,
        ClientEventKind::Send,
        Some(ClientState::Outstanding),
    ),
    (
        ClientState::Delivered,
        ClientEventKind::Send,
        Some(ClientState::Outstanding),
    ),
    (
        ClientState::Outstanding,
        ClientEventKind::Receive,
        Some(ClientState::Delivered),
    ),
    // Rereceive re-delivers an already-delivered reply (idempotent).
    (
        ClientState::Delivered,
        ClientEventKind::Rereceive,
        Some(ClientState::Delivered),
    ),
    // Disconnect only with no request in flight.
    (
        ClientState::Fresh,
        ClientEventKind::Disconnect,
        Some(ClientState::Disconnected),
    ),
    (
        ClientState::Delivered,
        ClientEventKind::Disconnect,
        Some(ClientState::Disconnected),
    ),
];

/// Fig 5 transition relation (all targets are static).
pub const SERVER_TABLE: &[(ServerState, ServerEventKind, ServerState)] = &[
    (
        ServerState::Waiting,
        ServerEventKind::Dequeue,
        ServerState::Processing,
    ),
    (
        ServerState::Waiting,
        ServerEventKind::DropMalformed,
        ServerState::Dropping,
    ),
    (
        ServerState::Dropping,
        ServerEventKind::Commit,
        ServerState::Waiting,
    ),
    (
        ServerState::Processing,
        ServerEventKind::Reply,
        ServerState::ReadyToCommit,
    ),
    (
        ServerState::Processing,
        ServerEventKind::Forward,
        ServerState::ReadyToCommit,
    ),
    // The handler failed (or deadlocked): the whole transaction unwinds
    // and the request reappears on its queue.
    (
        ServerState::Processing,
        ServerEventKind::Abort,
        ServerState::Waiting,
    ),
    (
        ServerState::ReadyToCommit,
        ServerEventKind::Commit,
        ServerState::Waiting,
    ),
    (
        ServerState::ReadyToCommit,
        ServerEventKind::Abort,
        ServerState::Waiting,
    ),
];

fn lock_poison_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------
// Conformance checker
// ---------------------------------------------------------------------

const TRACE_CAP: usize = 256;

/// A protocol violation with the offending entity's event trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Client or server identity.
    pub entity: String,
    /// What went wrong (state, event, failed guard).
    pub detail: String,
    /// The entity's recorded event trace (most recent last).
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}", self.entity, self.detail)?;
        writeln!(f, "  event trace ({} entries):", self.trace.len())?;
        for line in &self.trace {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

struct ClientMachine {
    state: ClientState,
    outstanding: Option<String>,
    delivered: Option<String>,
    last_acked_send: Option<String>,
    last_receive: Option<String>,
    // Set by the first observed Connect: from then on resync triples must
    // agree with our own bookkeeping.
    tags_known: bool,
    trace: Vec<String>,
}

impl ClientMachine {
    fn new() -> Self {
        ClientMachine {
            state: ClientState::Disconnected,
            outstanding: None,
            delivered: None,
            last_acked_send: None,
            last_receive: None,
            tags_known: false,
            trace: Vec::new(),
        }
    }
}

struct ServerMachine {
    state: ServerState,
    current: Option<String>,
    trace: Vec<String>,
}

impl ServerMachine {
    fn new() -> Self {
        ServerMachine {
            state: ServerState::Waiting,
            current: None,
            trace: Vec::new(),
        }
    }
}

#[derive(Default)]
struct ConfState {
    clients: HashMap<String, ClientMachine>,
    servers: HashMap<String, ServerMachine>,
    violations: Vec<Violation>,
    client_events: u64,
    server_events: u64,
}

/// Validates observed traces against [`CLIENT_TABLE`] / [`SERVER_TABLE`].
#[derive(Default)]
pub struct Conformance {
    inner: Mutex<ConfState>,
}

fn push_trace(trace: &mut Vec<String>, line: String) {
    if trace.len() >= TRACE_CAP {
        trace.remove(0);
    }
    trace.push(line);
}

impl Conformance {
    /// A fresh checker attached to `obs`: it sees the transitions emitted
    /// through that handle, and no other's.
    pub fn attach(obs: &Obs) -> Arc<Conformance> {
        let checker = Arc::new(Conformance::default());
        obs.attach_protocol(Arc::clone(&checker) as Arc<dyn ProtocolSink>);
        checker
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        lock_poison_ok(&self.inner).violations.clone()
    }

    /// Forget every tracked machine, violation, and counter while staying
    /// attached, so state from one scenario cannot leak into the verdict of
    /// the next one observed through the same handle.
    pub fn reset(&self) {
        *lock_poison_ok(&self.inner) = ConfState::default();
    }

    /// `(client_events, server_events)` observed — lets tests assert the
    /// run was not vacuously clean.
    pub fn events_seen(&self) -> (u64, u64) {
        let g = lock_poison_ok(&self.inner);
        (g.client_events, g.server_events)
    }

    /// Panic with every violation (and its trace) if any was recorded.
    pub fn assert_conformant(&self) {
        let violations = self.violations();
        if !violations.is_empty() {
            let mut msg = format!("{} protocol violation(s):\n", violations.len());
            for v in &violations {
                msg.push_str(&format!("{v}\n"));
            }
            panic!("{msg}");
        }
    }

    fn violate(st: &mut ConfState, entity: &str, detail: String, trace: Vec<String>) {
        st.violations.push(Violation {
            entity: entity.to_string(),
            detail,
            trace,
        });
    }
}

impl ProtocolSink for Conformance {
    fn on_client(&self, client: &str, event: ClientEvent) {
        let mut g = lock_poison_ok(&self.inner);
        g.client_events += 1;
        let m = g
            .clients
            .entry(client.to_string())
            .or_insert_with(ClientMachine::new);
        let line = format!("[{:?}] {:?}", m.state, event);
        push_trace(&mut m.trace, line);

        let row = CLIENT_TABLE
            .iter()
            .find(|(s, k, _)| *s == m.state && *k == (&event).into());
        let Some((_, _, target)) = row else {
            let detail = format!("illegal client event {:?} in state {:?}", event, m.state);
            let trace = m.trace.clone();
            Conformance::violate(&mut g, client, detail, trace);
            return;
        };
        let target = *target;

        // Payload guards and bookkeeping the table cannot express.
        let mut guard_failure: Option<String> = None;
        let mut next = target;
        match &event {
            ClientEvent::Connect { s_rid, r_rid } => {
                if m.tags_known {
                    if *s_rid != m.last_acked_send {
                        guard_failure = Some(format!(
                            "resync s_rid {:?} != last acked send {:?}",
                            s_rid, m.last_acked_send
                        ));
                    } else if *r_rid != m.last_receive {
                        guard_failure = Some(format!(
                            "resync r_rid {:?} != last delivered reply {:?}",
                            r_rid, m.last_receive
                        ));
                    }
                }
                m.tags_known = true;
                m.last_acked_send = s_rid.clone();
                m.last_receive = r_rid.clone();
                // Fig 2 lines 2–11: the triple decides where we resume.
                next = Some(match (s_rid, r_rid) {
                    (None, _) => {
                        m.outstanding = None;
                        m.delivered = None;
                        ClientState::Fresh
                    }
                    (Some(s), Some(r)) if s == r => {
                        m.outstanding = None;
                        m.delivered = Some(s.clone());
                        ClientState::Delivered
                    }
                    (Some(s), _) => {
                        m.outstanding = Some(s.clone());
                        m.delivered = None;
                        ClientState::Outstanding
                    }
                });
            }
            ClientEvent::Send { rid, acked } => {
                m.outstanding = Some(rid.clone());
                if *acked {
                    m.last_acked_send = Some(rid.clone());
                } else {
                    // A one-way send may or may not have reached the queue:
                    // the next resync triple cannot be predicted.
                    m.tags_known = false;
                }
            }
            ClientEvent::Receive { rid } => {
                if m.outstanding.as_ref() != Some(rid) {
                    guard_failure = Some(format!(
                        "received reply for {:?} but outstanding request is {:?}",
                        rid, m.outstanding
                    ));
                } else {
                    m.outstanding = None;
                    m.delivered = Some(rid.clone());
                    m.last_receive = Some(rid.clone());
                }
            }
            ClientEvent::Rereceive { rid } => {
                if m.delivered.as_ref() != Some(rid) {
                    guard_failure = Some(format!(
                        "re-received reply for {:?} but delivered reply is {:?}",
                        rid, m.delivered
                    ));
                }
            }
            ClientEvent::Disconnect => {
                // Deregistration destroys the resync state.
                m.outstanding = None;
                m.delivered = None;
                m.last_acked_send = None;
                m.last_receive = None;
            }
            ClientEvent::OpFailed { .. } => {
                // The operation may or may not have committed at the QM;
                // the next Connect's triple is unpredictable from here.
                m.tags_known = false;
            }
        }

        if let Some(why) = guard_failure {
            let detail = format!(
                "client guard failed on {:?} in state {:?}: {}",
                event, m.state, why
            );
            let trace = m.trace.clone();
            Conformance::violate(&mut g, client, detail, trace);
            return;
        }
        if let Some(next) = next {
            m.state = next;
        }
    }

    fn on_server(&self, server: &str, event: ServerEvent) {
        let mut g = lock_poison_ok(&self.inner);
        g.server_events += 1;
        let m = g
            .servers
            .entry(server.to_string())
            .or_insert_with(ServerMachine::new);
        let line = format!("[{:?}] {:?}", m.state, event);
        push_trace(&mut m.trace, line);

        let row = SERVER_TABLE
            .iter()
            .find(|(s, k, _)| *s == m.state && *k == (&event).into());
        let Some((_, _, target)) = row else {
            let detail = format!("illegal server event {:?} in state {:?}", event, m.state);
            let trace = m.trace.clone();
            Conformance::violate(&mut g, server, detail, trace);
            return;
        };
        let target = *target;

        let mut guard_failure: Option<String> = None;
        match &event {
            ServerEvent::Dequeue { rid } => m.current = Some(rid.clone()),
            ServerEvent::Reply { rid } | ServerEvent::Forward { rid } => {
                if m.current.as_ref() != Some(rid) {
                    guard_failure = Some(format!(
                        "answered {:?} but the dequeued request is {:?}",
                        rid, m.current
                    ));
                }
            }
            ServerEvent::Commit | ServerEvent::Abort => m.current = None,
            ServerEvent::DropMalformed => {}
        }

        if let Some(why) = guard_failure {
            let detail = format!(
                "server guard failed on {:?} in state {:?}: {}",
                event, m.state, why
            );
            let trace = m.trace.clone();
            Conformance::violate(&mut g, server, detail, trace);
            return;
        }
        m.state = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_seq(events: &[ClientEvent]) -> Vec<Violation> {
        let c = Conformance::default();
        for e in events {
            c.on_client("c1", e.clone());
        }
        c.violations()
    }

    fn server_seq(events: &[ServerEvent]) -> Vec<Violation> {
        let c = Conformance::default();
        for e in events {
            c.on_server("s1", e.clone());
        }
        c.violations()
    }

    #[test]
    fn happy_path_client_is_clean() {
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            ClientEvent::Receive { rid: "c1:1".into() },
            ClientEvent::Send {
                rid: "c1:2".into(),
                acked: true,
            },
            ClientEvent::Receive { rid: "c1:2".into() },
            ClientEvent::Disconnect,
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crash_resync_to_outstanding_is_clean() {
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            // crash: no Receive, no Disconnect — next incarnation resyncs.
            ClientEvent::Connect {
                s_rid: Some("c1:1".into()),
                r_rid: None,
            },
            ClientEvent::Receive { rid: "c1:1".into() },
            ClientEvent::Connect {
                s_rid: Some("c1:1".into()),
                r_rid: Some("c1:1".into()),
            },
            ClientEvent::Rereceive { rid: "c1:1".into() },
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn receive_without_send_is_flagged() {
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Receive { rid: "c1:1".into() },
        ]);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].detail.contains("illegal client event"),
            "{}",
            v[0].detail
        );
        // The violation carries the offending trace.
        assert_eq!(v[0].trace.len(), 2);
    }

    #[test]
    fn double_send_is_flagged() {
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            ClientEvent::Send {
                rid: "c1:2".into(),
                acked: true,
            },
        ]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn disconnect_with_outstanding_request_is_flagged() {
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            ClientEvent::Disconnect,
        ]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn lying_resync_triple_is_flagged() {
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            ClientEvent::Connect {
                s_rid: Some("c1:9".into()),
                r_rid: None,
            },
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("s_rid"), "{}", v[0].detail);
    }

    #[test]
    fn wrong_reply_rid_is_flagged() {
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            ClientEvent::Receive { rid: "c1:7".into() },
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("outstanding"), "{}", v[0].detail);
    }

    #[test]
    fn happy_path_server_is_clean() {
        let v = server_seq(&[
            ServerEvent::Dequeue { rid: "c1:1".into() },
            ServerEvent::Reply { rid: "c1:1".into() },
            ServerEvent::Commit,
            ServerEvent::Dequeue { rid: "c1:2".into() },
            ServerEvent::Forward { rid: "c1:2".into() },
            ServerEvent::Commit,
            ServerEvent::Dequeue { rid: "c1:3".into() },
            ServerEvent::Abort,
            ServerEvent::DropMalformed,
            ServerEvent::Commit,
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn commit_without_dequeue_is_flagged() {
        let v = server_seq(&[ServerEvent::Commit]);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].detail.contains("illegal server event"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn reply_for_wrong_request_is_flagged() {
        let v = server_seq(&[
            ServerEvent::Dequeue { rid: "c1:1".into() },
            ServerEvent::Reply { rid: "c1:2".into() },
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("dequeued request"), "{}", v[0].detail);
    }

    #[test]
    fn reply_after_commit_is_flagged() {
        let v = server_seq(&[
            ServerEvent::Dequeue { rid: "c1:1".into() },
            ServerEvent::Reply { rid: "c1:1".into() },
            ServerEvent::Commit,
            ServerEvent::Reply { rid: "c1:1".into() },
        ]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn violation_display_dumps_trace() {
        let v = server_seq(&[ServerEvent::Commit]);
        let text = v[0].to_string();
        assert!(text.contains("Commit"), "{text}");
        assert!(text.contains("trace"), "{text}");
    }

    #[test]
    fn op_failed_is_legal_everywhere_and_voids_tag_prediction() {
        // An acked Send times out on the wire but committed server-side:
        // the next incarnation's resync triple names a send the checker
        // never saw acknowledged. OpFailed must make that legal.
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::OpFailed { op: "send".into() },
            ClientEvent::Connect {
                s_rid: Some("c1:1".into()),
                r_rid: None,
            },
            ClientEvent::Receive { rid: "c1:1".into() },
            // A Receive whose ack was lost: the tag advanced unseen again.
            ClientEvent::OpFailed {
                op: "receive".into(),
            },
            ClientEvent::Connect {
                s_rid: Some("c1:1".into()),
                r_rid: Some("c1:1".into()),
            },
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn op_failed_does_not_change_state() {
        // Without an intervening Connect, the machine stays where it was:
        // a Receive is still legal after a failed receive attempt.
        let v = client_seq(&[
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            ClientEvent::OpFailed {
                op: "receive".into(),
            },
            ClientEvent::Receive { rid: "c1:1".into() },
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lying_resync_still_flagged_without_op_failure() {
        // OpFailed must not grant blanket amnesty: a clean run whose resync
        // triple lies is still a violation (this is the existing
        // `lying_resync_triple_is_flagged` with an OpFailed on an
        // *unrelated earlier* connection cycle).
        let v = client_seq(&[
            ClientEvent::OpFailed {
                op: "connect".into(),
            },
            ClientEvent::Connect {
                s_rid: None,
                r_rid: None,
            },
            ClientEvent::Send {
                rid: "c1:1".into(),
                acked: true,
            },
            ClientEvent::Connect {
                s_rid: Some("c1:9".into()),
                r_rid: None,
            },
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("s_rid"), "{}", v[0].detail);
    }

    #[test]
    fn reset_forgets_machines_and_violations() {
        let c = Conformance::default();
        c.on_server("s1", ServerEvent::Commit); // illegal: Waiting + Commit
        c.on_server("s1", ServerEvent::Dequeue { rid: "c1:1".into() });
        assert_eq!(c.violations().len(), 1);
        c.reset();
        assert!(c.violations().is_empty());
        assert_eq!(c.events_seen(), (0, 0));
        // s1 is back in Waiting: a fresh Dequeue→Reply→Commit cycle is clean.
        c.on_server("s1", ServerEvent::Dequeue { rid: "c1:2".into() });
        c.on_server("s1", ServerEvent::Reply { rid: "c1:2".into() });
        c.on_server("s1", ServerEvent::Commit);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        assert_eq!(c.events_seen(), (0, 3));
    }

    #[test]
    fn a_dormant_hook_does_not_build_its_event() {
        let obs = Obs::default();
        obs.client_event("nobody", || unreachable!("built with no observer"));
        obs.server_event("nobody", || unreachable!("built with no observer"));
    }

    #[test]
    fn an_attached_checker_sees_only_its_handles_events() {
        let (mine, sibling) = (Obs::default(), Obs::default());
        let checker = Conformance::attach(&mine);
        mine.server_event("s9", || ServerEvent::Dequeue { rid: "c1:1".into() });
        // The sibling's event never reaches this checker, where a second
        // Dequeue in Processing would have been a violation.
        sibling.server_event("s9", || ServerEvent::Dequeue { rid: "c1:2".into() });
        assert_eq!(checker.events_seen(), (0, 1));
        checker.assert_conformant();
    }
}
