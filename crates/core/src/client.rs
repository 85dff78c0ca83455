//! The fault-tolerant client program (§3, Figs 1–2).
//!
//! The client is "a fault-tolerant sequential program": it keeps *no*
//! durable state of its own. At recovery time it reconstructs where it left
//! off from the rids the system returns at `Connect`, then decides — exactly
//! per Fig 2 — whether to receive an outstanding reply, whether to reprocess
//! (rereceive) the last reply, or to proceed with new work. This is the one
//! copy of that decision: `rrq-sim`'s crash driver and explorer run
//! [`ClientRuntime`] step by step and crash it between the steps.
//!
//! Reply processing is delegated to a [`ReplyProcessor`], which is "just
//! another resource manager" from the protocol's point of view (§2): it
//! supplies the checkpoint that rides in the Receive tag and answers the
//! §3 question "did I already process this reply?" using its device state.

use crate::clerk::{Clerk, ConnectInfo};
use crate::error::{CoreError, CoreResult};
use crate::request::Reply;
use crate::rid::Rid;

/// How the client consumes replies. Implementations range from idempotent
/// displays to non-idempotent testable devices (ticket printers, §3).
pub trait ReplyProcessor {
    /// Produce the checkpoint bytes recorded with the upcoming Receive —
    /// e.g. the printer's next ticket number read *before* receiving.
    fn checkpoint(&mut self) -> Vec<u8>;

    /// Consume a reply. May be non-idempotent.
    fn process(&mut self, rid: &Rid, reply: &Reply);

    /// §3 resynchronization question: given the checkpoint recorded with the
    /// last Receive, was its reply already processed? (Testable devices
    /// compare the device state with the checkpoint.)
    fn already_processed(&mut self, rid: &Rid, ckpt: Option<&[u8]>) -> bool;
}

/// What the Fig 2 resynchronization decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResyncAction {
    /// No outstanding request: proceed to new work.
    Fresh,
    /// A request is outstanding whose reply was never received: Receive it
    /// (and process it).
    ReceivedOutstanding {
        /// Rid of the outstanding request.
        rid: Rid,
        /// The reply that was received during resync.
        reply: Reply,
    },
    /// The last reply was received before the failure and the processor
    /// confirmed it was already processed: nothing to redo.
    AlreadyProcessed {
        /// Rid of the last completed request.
        rid: Rid,
    },
    /// The last reply was received but (possibly) never processed: it was
    /// re-obtained with Rereceive and processed (again) — at-least-once.
    Reprocessed {
        /// Rid of the reprocessed request.
        rid: Rid,
        /// The rereceived reply.
        reply: Reply,
    },
}

/// The Fig 2 client program, one request at a time, in the steps a crash
/// can fall between: [`Clerk::connect`], [`ClientRuntime::resync`], then per
/// request [`ClientRuntime::send`], [`ClientRuntime::receive`] and the
/// processor's `process`. [`ClientRuntime::resume`] and
/// [`ClientRuntime::submit`] run the steps back to back.
pub struct ClientRuntime {
    clerk: Clerk,
    next_serial: u64,
}

impl ClientRuntime {
    /// Wrap a clerk. Call [`ClientRuntime::resume`] before submitting work.
    pub fn new(clerk: Clerk) -> Self {
        ClientRuntime {
            clerk,
            next_serial: 1,
        }
    }

    /// The wrapped clerk.
    pub fn clerk(&self) -> &Clerk {
        &self.clerk
    }

    /// Connect, then [`ClientRuntime::resync`]. After this, the runtime is
    /// ready for [`ClientRuntime::submit`].
    pub fn resume(&mut self, processor: &mut dyn ReplyProcessor) -> CoreResult<ResyncAction> {
        let info = self.clerk.connect()?;
        self.resync(&info, processor)
    }

    /// Fig 2 lines 2–11, given what `Connect` returned: Receive the reply of
    /// an outstanding request, or Rereceive the last reply unless the
    /// processor proves it processed it, or do nothing. Every reply obtained
    /// here is processed. Requests continue at the serial after `s-rid`.
    pub fn resync(
        &mut self,
        info: &ConnectInfo,
        processor: &mut dyn ReplyProcessor,
    ) -> CoreResult<ResyncAction> {
        let Some(rid) = info.s_rid.clone() else {
            return Ok(ResyncAction::Fresh);
        };
        self.next_serial = rid.serial + 1;
        if info.r_rid.as_ref() != Some(&rid) {
            // Sent but reply not received: Receive it now.
            let reply = self.receive(&rid, processor)?;
            processor.process(&rid, &reply);
            Ok(ResyncAction::ReceivedOutstanding { rid, reply })
        } else if processor.already_processed(&rid, info.ckpt.as_deref()) {
            Ok(ResyncAction::AlreadyProcessed { rid })
        } else {
            let reply = self.clerk.rereceive()?;
            processor.process(&rid, &reply);
            Ok(ResyncAction::Reprocessed { rid, reply })
        }
    }

    /// `Send` the next request under a fresh rid, which it returns.
    pub fn send(&mut self, op: &str, body: Vec<u8>) -> CoreResult<Rid> {
        let rid = Rid::new(self.clerk.config().client_id.clone(), self.next_serial);
        self.next_serial += 1;
        self.clerk.send(op, body, rid.clone())?;
        Ok(rid)
    }

    /// `Receive` the reply to `rid` under the processor's checkpoint, without
    /// processing it. A reply for any other rid is
    /// [`CoreError::ReplyMismatch`].
    pub fn receive(&self, rid: &Rid, processor: &mut dyn ReplyProcessor) -> CoreResult<Reply> {
        let ckpt = processor.checkpoint();
        let reply = self.clerk.receive(&ckpt)?;
        if reply.rid != *rid {
            return Err(CoreError::ReplyMismatch {
                expected: rid.clone(),
                got: reply.rid,
            });
        }
        Ok(reply)
    }

    /// Send one request, receive its reply and process it: the Fig 2 main
    /// loop body.
    pub fn submit(
        &mut self,
        op: &str,
        body: Vec<u8>,
        processor: &mut dyn ReplyProcessor,
    ) -> CoreResult<(Rid, Reply)> {
        let rid = self.send(op, body)?;
        let reply = self.receive(&rid, processor)?;
        processor.process(&rid, &reply);
        Ok((rid, reply))
    }

    /// Disconnect when the client has no more work (§3).
    pub fn disconnect(&self) -> CoreResult<()> {
        self.clerk.disconnect()
    }

    /// The serial the next request will use.
    pub fn next_serial(&self) -> u64 {
        self.next_serial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Display;
    use crate::request::ReplyStatus;
    use crate::rid::Rid;

    #[test]
    fn resync_action_equality() {
        let a = ResyncAction::Fresh;
        assert_eq!(a, ResyncAction::Fresh);
        let r = ResyncAction::AlreadyProcessed {
            rid: Rid::new("c", 1),
        };
        assert_ne!(a, r);
    }

    /// A reply for another rid in the client's reply queue is a typed
    /// mismatch, from the main loop's Receive and from resync's alike.
    #[test]
    fn a_reply_for_another_rid_is_a_reply_mismatch() {
        use crate::api::{LocalQm, QmApi};
        use crate::clerk::ClerkConfig;
        use rrq_qm::ops::EnqueueOptions;
        use rrq_qm::repository::Repository;
        use rrq_storage::codec::Encode;
        use std::sync::Arc;
        use std::time::Duration;

        let repo = Arc::new(Repository::create("client-mismatch").unwrap());
        repo.create_queue_defaults("req").unwrap();
        repo.create_queue_defaults("reply.c1").unwrap();
        let api = Arc::new(LocalQm::new(repo));
        let stray = Rid::new("c1", 99);
        let put_stray_reply = || {
            let reply = Reply {
                rid: stray.clone(),
                status: ReplyStatus::Ok,
                body: vec![],
            };
            api.enqueue(
                "reply.c1",
                "srv",
                &reply.encode_to_vec(),
                EnqueueOptions::default(),
            )
            .unwrap();
        };
        let runtime = || {
            let mut cfg = ClerkConfig::new("c1", "req");
            cfg.receive_block = Duration::from_millis(200);
            ClientRuntime::new(Clerk::new(Arc::clone(&api) as Arc<dyn QmApi>, cfg))
        };
        let mut display = Display::new();
        let mismatch = |expected: u64| CoreError::ReplyMismatch {
            expected: Rid::new("c1", expected),
            got: stray.clone(),
        };

        // Request 1 is outstanding when the client restarts.
        let mut first = runtime();
        assert_eq!(first.resume(&mut display).unwrap(), ResyncAction::Fresh);
        assert_eq!(first.send("op", vec![]).unwrap(), Rid::new("c1", 1));
        put_stray_reply();
        let mut second = runtime();
        let info = second.clerk().connect().unwrap();
        assert_eq!(info.s_rid, Some(Rid::new("c1", 1)));
        assert_eq!(second.resync(&info, &mut display), Err(mismatch(1)));

        let rid = second.send("op", vec![]).unwrap();
        put_stray_reply();
        assert_eq!(second.receive(&rid, &mut display), Err(mismatch(2)));
        assert!(
            display.shown().is_empty(),
            "a mismatched reply is not processed"
        );
    }

    #[test]
    fn display_processor_detects_duplicates() {
        let mut d = Display::new();
        let rid = Rid::new("c", 1);
        let reply = Reply {
            rid: rid.clone(),
            status: ReplyStatus::Ok,
            body: b"x".to_vec(),
        };
        assert!(!d.already_processed(&rid, None));
        d.process(&rid, &reply);
        assert!(d.already_processed(&rid, None));
        d.process(&rid, &reply);
        assert_eq!(d.duplicates_ignored(), 1);
        assert_eq!(d.shown().len(), 1);
    }
}
