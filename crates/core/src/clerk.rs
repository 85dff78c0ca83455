//! The clerk — the runtime library that translates Client Model operations
//! into queue operations (§5, Fig 5).
//!
//! The clerk is deliberately stateless across failures: everything needed to
//! resynchronize lives in the QM's persistent registration records (§4.3).
//! `Connect` re-registers with the request and reply queues; the returned
//! tags reconstruct the rids of the client's last `Send` and last `Receive`
//! and the checkpoint supplied with that `Receive` — exactly the `s-rid`,
//! `r-rid`, `ckpt` triple of Fig 2.

use crate::api::QmApi;
use crate::error::{CoreError, CoreResult};
use crate::request::{Reply, Request};
use crate::rid::Rid;
use crate::tagcodec::{decode_tag, encode_receive_tag, encode_send_tag, ClerkTag};
use parking_lot::Mutex;
use rrq_obs::{ClientEvent, Obs};
use rrq_qm::element::Eid;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::registration::LastOp;
use rrq_storage::codec::Encode;
use std::sync::Arc;
use std::time::Duration;

/// How `Send` talks to the QM (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Acknowledged RPC: when `send` returns, the request is stably stored.
    Acked,
    /// One-way message: saves the acknowledgement; a lost request surfaces
    /// as a `receive` timeout followed by resynchronization.
    OneWay,
}

/// Clerk configuration.
#[derive(Debug, Clone)]
pub struct ClerkConfig {
    /// The client's unique, stable name.
    pub client_id: String,
    /// Queue the server(s) dequeue requests from.
    pub request_queue: String,
    /// This client's private reply queue (§5 multi-client extension).
    pub reply_queue: String,
    /// Transport discipline for `send`.
    pub send_mode: SendMode,
    /// How long `receive` blocks for a reply before reporting empty.
    pub receive_block: Duration,
}

impl ClerkConfig {
    /// Sensible defaults: acked sends, 5 s receive window, reply queue named
    /// after the client.
    pub fn new(client_id: impl Into<String>, request_queue: impl Into<String>) -> Self {
        let client_id = client_id.into();
        let reply_queue = format!("reply.{client_id}");
        ClerkConfig {
            client_id,
            request_queue: request_queue.into(),
            reply_queue,
            send_mode: SendMode::Acked,
            receive_block: Duration::from_secs(5),
        }
    }
}

/// What `Connect` reports back to the client (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectInfo {
    /// Rid of the last request the system received from this client.
    pub s_rid: Option<Rid>,
    /// Rid of the request corresponding to the last reply the client
    /// received.
    pub r_rid: Option<Rid>,
    /// The `ckpt` parameter of the client's last `Receive`.
    pub ckpt: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct ClerkState {
    connected: bool,
    /// Rid of the most recent Send (restored by connect).
    last_send_rid: Option<Rid>,
    /// Eid of the most recent request element (for cancellation).
    last_request_eid: Option<Eid>,
    /// Eid of the most recently received reply element (for Rereceive).
    last_reply_eid: Option<Eid>,
    /// Logical tick of the last Fig 1 state transition (metrics only).
    last_transition_tick: u64,
}

/// Record how long the clerk dwelt in its current Fig 1 state, in logical
/// ticks, then restart the dwell clock. Called with the state lock held so
/// the dwell series is per-transition exact.
fn note_transition(obs: &Obs, st: &mut ClerkState) {
    let now = obs.now();
    obs.observe(
        "core.clerk.state_dwell_ticks",
        now.saturating_sub(st.last_transition_tick),
    );
    st.last_transition_tick = now;
}

/// The clerk. One per client process; thread-compatible but the Client Model
/// is sequential, so callers normally use it from one thread.
pub struct Clerk {
    api: Arc<dyn QmApi>,
    cfg: ClerkConfig,
    state: Mutex<ClerkState>,
    /// Its transport's handle ([`QmApi::obs`]).
    obs: Obs,
}

impl Clerk {
    /// Build a clerk over any QM transport; it reports to the transport's
    /// observation handle.
    pub fn new(api: Arc<dyn QmApi>, cfg: ClerkConfig) -> Self {
        Clerk {
            obs: api.obs().clone(),
            api,
            cfg,
            state: Mutex::new(ClerkState::default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ClerkConfig {
        &self.cfg
    }

    /// Report a Fig 1 transition of this client to its handle.
    fn event(&self, event: impl FnOnce() -> ClientEvent) {
        self.obs.client_event(&self.cfg.client_id, event);
    }

    /// Report a network-failed operation to the protocol observer. Whether
    /// the operation committed at the QM is unknown to this client, so the
    /// checker must stop predicting the stable tags until the next resync.
    fn note_net_failure<T>(&self, op: &str, r: CoreResult<T>) -> CoreResult<T> {
        if let Err(CoreError::Net(_)) = &r {
            self.event(|| ClientEvent::OpFailed { op: op.into() });
        }
        r
    }

    /// `Connect(client-id)`: register with both queues and reconstruct the
    /// resynchronization triple from the stable registration tags.
    pub fn connect(&self) -> CoreResult<ConnectInfo> {
        let req_reg = self.note_net_failure(
            "connect",
            self.api
                .register(&self.cfg.request_queue, &self.cfg.client_id, true),
        )?;
        let reply_reg = self.note_net_failure(
            "connect",
            self.api
                .register(&self.cfg.reply_queue, &self.cfg.client_id, true),
        )?;

        let mut info = ConnectInfo {
            s_rid: None,
            r_rid: None,
            ckpt: None,
        };
        let mut st = self.state.lock();
        if req_reg.last_op == LastOp::Enqueue {
            if let Some(tag) = &req_reg.tag {
                if let ClerkTag::Send { rid } = decode_tag(tag)? {
                    info.s_rid = Some(rid.clone());
                    st.last_send_rid = Some(rid);
                    st.last_request_eid = req_reg.eid;
                }
            }
        }
        if reply_reg.last_op == LastOp::Dequeue {
            if let Some(tag) = &reply_reg.tag {
                if let ClerkTag::Receive { rid, ckpt } = decode_tag(tag)? {
                    info.r_rid = Some(rid);
                    info.ckpt = Some(ckpt);
                    st.last_reply_eid = reply_reg.eid;
                }
            }
        }
        st.connected = true;
        self.obs.counter_inc("core.clerk.connects");
        if info.s_rid.is_some() || info.r_rid.is_some() {
            // The stable tags reconstructed a prior incarnation's state —
            // this connect is a Fig 2 resynchronization.
            self.obs.counter_inc("core.clerk.resyncs");
        }
        note_transition(&self.obs, &mut st);
        self.event(|| ClientEvent::Connect {
            s_rid: info.s_rid.as_ref().map(|r| r.to_attr()),
            r_rid: info.r_rid.as_ref().map(|r| r.to_attr()),
        });
        Ok(info)
    }

    /// `Disconnect(client-id)`: deregister from both queues. A disconnected
    /// client that reconnects starts fresh — disconnect is the client's
    /// statement that it has no outstanding work (§3).
    pub fn disconnect(&self) -> CoreResult<()> {
        self.ensure_connected()?;
        self.note_net_failure(
            "disconnect",
            self.api
                .deregister(&self.cfg.request_queue, &self.cfg.client_id),
        )?;
        self.note_net_failure(
            "disconnect",
            self.api
                .deregister(&self.cfg.reply_queue, &self.cfg.client_id),
        )?;
        *self.state.lock() = ClerkState::default();
        self.event(|| ClientEvent::Disconnect);
        Ok(())
    }

    /// `Send(r, s-rid)`: enqueue the request, tagging the operation with the
    /// rid. In [`SendMode::Acked`], when this returns the request and rid are
    /// stably stored.
    pub fn send(&self, op: &str, body: Vec<u8>, rid: Rid) -> CoreResult<()> {
        self.ensure_connected()?;
        let request = Request::new(rid, self.cfg.reply_queue.clone(), op, body);
        self.send_request(request)
    }

    /// Send a pre-built request record (pipelines, interactive requests).
    pub fn send_request(&self, request: Request) -> CoreResult<()> {
        self.ensure_connected()?;
        let payload = request.encode_to_vec();
        let Request {
            rid, reply_queue, ..
        } = request;
        let opts = EnqueueOptions {
            priority: 0,
            attrs: vec![
                ("rid".into(), rid.to_attr()),
                ("reply_queue".into(), reply_queue),
            ],
            tag: Some(encode_send_tag(&rid)),
        };
        let mut st = self.state.lock();
        match self.cfg.send_mode {
            SendMode::Acked => {
                let eid = self.note_net_failure(
                    "send",
                    self.api
                        .enqueue(&self.cfg.request_queue, &self.cfg.client_id, &payload, opts),
                )?;
                st.last_request_eid = Some(eid);
            }
            SendMode::OneWay => {
                self.note_net_failure(
                    "send",
                    self.api.enqueue_unacked(
                        &self.cfg.request_queue,
                        &self.cfg.client_id,
                        &payload,
                        opts,
                    ),
                )?;
                st.last_request_eid = None; // unknown until resync
            }
        }
        self.event(|| ClientEvent::Send {
            rid: rid.to_attr(),
            acked: self.cfg.send_mode == SendMode::Acked,
        });
        self.obs.counter_inc("core.clerk.sends");
        note_transition(&self.obs, &mut st);
        st.last_send_rid = Some(rid);
        Ok(())
    }

    /// `Receive(ckpt)`: dequeue the next reply, tagging the operation with
    /// the previous Send's rid and the caller's checkpoint.
    pub fn receive(&self, ckpt: &[u8]) -> CoreResult<Reply> {
        self.ensure_connected()?;
        let tag = match &self.state.lock().last_send_rid {
            Some(rid) => encode_receive_tag(rid, ckpt),
            None => return Err(CoreError::Protocol("receive before any send".into())),
        };
        let elem = self.note_net_failure(
            "receive",
            self.api.dequeue(
                &self.cfg.reply_queue,
                &self.cfg.client_id,
                DequeueOptions {
                    tag: Some(tag),
                    block: Some(self.cfg.receive_block),
                    ..Default::default()
                },
            ),
        )?;
        let eid = elem.eid;
        let reply =
            Reply::from_payload(elem.payload).map_err(|e| CoreError::Malformed(e.to_string()))?;
        {
            let mut st = self.state.lock();
            st.last_reply_eid = Some(eid);
            self.obs.counter_inc("core.clerk.receives");
            note_transition(&self.obs, &mut st);
        }
        self.event(|| ClientEvent::Receive {
            rid: reply.rid.to_attr(),
        });
        Ok(reply)
    }

    /// `Rereceive()`: return the reply from the client's last `Receive` —
    /// the element is retained by the QM even after its dequeue (§4.3).
    pub fn rereceive(&self) -> CoreResult<Reply> {
        self.ensure_connected()?;
        let eid = self.state.lock().last_reply_eid.ok_or(CoreError::NoReply)?;
        let elem = self.note_net_failure("rereceive", self.api.read(eid))?;
        let reply =
            Reply::from_payload(elem.payload).map_err(|e| CoreError::Malformed(e.to_string()))?;
        self.obs.counter_inc("core.clerk.rereceives");
        self.event(|| ClientEvent::Rereceive {
            rid: reply.rid.to_attr(),
        });
        Ok(reply)
    }

    /// `Transceive` (§5): Send then block for the Receive in one call.
    pub fn transceive(&self, op: &str, body: Vec<u8>, rid: Rid, ckpt: &[u8]) -> CoreResult<Reply> {
        self.send(op, body, rid)?;
        self.receive(ckpt)
    }

    /// `Cancel-last-request` (§7): kill the element of the last request.
    /// Returns `Ok(true)` when the request was (or will be) cancelled,
    /// `Ok(false)` when it is too late.
    pub fn cancel_last_request(&self) -> CoreResult<bool> {
        self.ensure_connected()?;
        let eid = self.state.lock().last_request_eid.ok_or_else(|| {
            CoreError::Protocol("no cancellable request (none sent, or sent one-way)".into())
        })?;
        self.api.kill(eid)
    }

    /// Eid of the last request element (for tests and sagas).
    pub fn last_request_eid(&self) -> Option<Eid> {
        self.state.lock().last_request_eid
    }

    fn ensure_connected(&self) -> CoreResult<()> {
        if self.state.lock().connected {
            Ok(())
        } else {
            Err(CoreError::NotConnected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LocalQm;
    use rrq_qm::repository::Repository;

    fn setup() -> (Arc<Repository>, Clerk) {
        let repo = Arc::new(Repository::create("clerk").unwrap());
        repo.create_queue_defaults("req").unwrap();
        repo.create_queue_defaults("reply.c1").unwrap();
        let api = Arc::new(LocalQm::new(Arc::clone(&repo)));
        let mut cfg = ClerkConfig::new("c1", "req");
        cfg.receive_block = Duration::from_millis(200);
        (repo, Clerk::new(api, cfg))
    }

    #[test]
    fn operations_require_connect() {
        let (_repo, clerk) = setup();
        assert!(matches!(
            clerk.send("op", vec![], Rid::new("c1", 1)),
            Err(CoreError::NotConnected)
        ));
        assert!(matches!(clerk.receive(b""), Err(CoreError::NotConnected)));
        assert!(matches!(clerk.rereceive(), Err(CoreError::NotConnected)));
    }

    #[test]
    fn fresh_connect_reports_nils() {
        let (_repo, clerk) = setup();
        let info = clerk.connect().unwrap();
        assert_eq!(info.s_rid, None);
        assert_eq!(info.r_rid, None);
        assert_eq!(info.ckpt, None);
    }

    #[test]
    fn send_is_stably_stored_and_connect_sees_it() {
        let (repo, clerk) = setup();
        clerk.connect().unwrap();
        clerk
            .send("noop", b"body".to_vec(), Rid::new("c1", 1))
            .unwrap();
        assert_eq!(repo.qm().depth("req").unwrap(), 1);

        // A second clerk instance (the restarted client process) reconnects
        // and learns the rid of the outstanding request.
        let api = Arc::new(LocalQm::new(Arc::clone(&repo)));
        let mut cfg = ClerkConfig::new("c1", "req");
        cfg.receive_block = Duration::from_millis(100);
        let clerk2 = Clerk::new(api, cfg);
        let info = clerk2.connect().unwrap();
        assert_eq!(info.s_rid, Some(Rid::new("c1", 1)));
        assert_eq!(info.r_rid, None);
    }

    #[test]
    fn receive_before_send_is_protocol_error() {
        let (_repo, clerk) = setup();
        clerk.connect().unwrap();
        assert!(matches!(clerk.receive(b""), Err(CoreError::Protocol(_))));
    }

    #[test]
    fn cancel_last_request_kills_queued_element() {
        let (repo, clerk) = setup();
        clerk.connect().unwrap();
        clerk.send("noop", vec![], Rid::new("c1", 1)).unwrap();
        assert!(clerk.cancel_last_request().unwrap());
        assert_eq!(repo.qm().depth("req").unwrap(), 0);
    }

    #[test]
    fn disconnect_then_reconnect_is_fresh() {
        let (_repo, clerk) = setup();
        clerk.connect().unwrap();
        clerk.send("noop", vec![], Rid::new("c1", 1)).unwrap();
        clerk.disconnect().unwrap();
        let info = clerk.connect().unwrap();
        assert_eq!(info.s_rid, None, "disconnect forgot the session");
    }
}
