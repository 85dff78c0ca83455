//! Pseudo-conversational interactive requests (§8.1–8.2, Fig 7).
//!
//! The interactive request is mapped onto a serial multi-transaction
//! request: "each intermediate output is a reply, and each intermediate
//! input is a request for the next transaction in the sequence". The client
//! cycles between *Req-Sent* and *Intermediate-I/O* (Fig 7); because each
//! boundary is a committed transaction, "each time the client receives an
//! intermediate output, it knows that its previous input … was reliably
//! captured, and will not need to be re-sent in the event of a failure".

use crate::api::QmApi;
use crate::error::{CoreError, CoreResult};
use crate::request::{Reply, ReplyStatus, Request};
use crate::rid::Rid;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_storage::codec::{put, Decode, Encode, Reader};
use std::sync::Arc;
use std::time::Duration;

/// Encode an intermediate-output reply body: where the next input goes, the
/// prompt shown to the user, and the conversation state the client must echo
/// (the IMS "scratch pad" riding in the message, §9).
pub fn encode_intermediate(next_queue: &str, prompt: &[u8], state: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    put::string(&mut buf, next_queue);
    put::bytes(&mut buf, prompt);
    put::bytes(&mut buf, state);
    buf
}

/// Decode an intermediate-output reply body.
pub fn decode_intermediate(raw: &[u8]) -> CoreResult<(String, Vec<u8>, Vec<u8>)> {
    let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
    let mut r = Reader::new(raw);
    let next_queue = r.string().map_err(m)?;
    let prompt = r.bytes().map_err(m)?;
    let state = r.bytes().map_err(m)?;
    Ok((next_queue, prompt, state))
}

/// Summary of one interactive exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConversationOutcome {
    /// The final reply.
    pub reply: Reply,
    /// Number of intermediate rounds (output+input pairs).
    pub rounds: usize,
    /// Prompts seen, in order.
    pub prompts: Vec<Vec<u8>>,
}

/// How long one round waits for the server's next output.
const RECEIVE_BLOCK: Duration = Duration::from_secs(10);

/// Client driver for pseudo-conversational requests.
pub struct InteractiveClient {
    api: Arc<dyn QmApi>,
    client_id: String,
    reply_queue: String,
}

impl InteractiveClient {
    /// Build a driver. `reply_queue` must exist on the QM.
    pub fn new(
        api: Arc<dyn QmApi>,
        client_id: impl Into<String>,
        reply_queue: impl Into<String>,
    ) -> Self {
        InteractiveClient {
            api,
            client_id: client_id.into(),
            reply_queue: reply_queue.into(),
        }
    }

    /// Run an interactive request to completion: send the initial request to
    /// `entry_queue`, then answer each intermediate output with
    /// `input_fn(prompt)` until the final reply arrives.
    pub fn run(
        &self,
        entry_queue: &str,
        rid: Rid,
        op: &str,
        initial_body: Vec<u8>,
        mut input_fn: impl FnMut(&[u8]) -> Vec<u8>,
    ) -> CoreResult<ConversationOutcome> {
        self.api
            .register(&self.reply_queue, &self.client_id, true)?;
        self.api.register(entry_queue, &self.client_id, true)?;
        let req = Request::new(rid.clone(), self.reply_queue.clone(), op, initial_body);
        self.send_to(entry_queue, &req)?;

        let mut rounds = 0usize;
        let mut prompts = Vec::new();
        loop {
            let elem = self.api.dequeue(
                &self.reply_queue,
                &self.client_id,
                DequeueOptions {
                    block: Some(RECEIVE_BLOCK),
                    ..Default::default()
                },
            )?;
            let reply = Reply::decode_all(&elem.payload)
                .map_err(|e| CoreError::Malformed(e.to_string()))?;
            if reply.rid != rid {
                return Err(CoreError::Protocol(format!(
                    "request-reply mismatch: expected {rid}, got {}",
                    reply.rid
                )));
            }
            match reply.status {
                ReplyStatus::Intermediate => {
                    let (next_queue, prompt, state) = decode_intermediate(&reply.body)?;
                    // Receiving this output proves the previous input was
                    // reliably captured (it committed with the stage txn).
                    let input = input_fn(&prompt);
                    prompts.push(prompt);
                    rounds += 1;
                    self.api.register(&next_queue, &self.client_id, true)?;
                    let mut cont =
                        Request::new(rid.clone(), self.reply_queue.clone(), "continue", input);
                    cont.state = state;
                    self.send_to(&next_queue, &cont)?;
                }
                _ => {
                    return Ok(ConversationOutcome {
                        reply,
                        rounds,
                        prompts,
                    })
                }
            }
        }
    }

    fn send_to(&self, queue: &str, req: &Request) -> CoreResult<()> {
        let opts = EnqueueOptions {
            priority: 0,
            attrs: vec![
                ("rid".into(), req.rid.to_attr()),
                ("reply_queue".into(), req.reply_queue.clone()),
            ],
            tag: Some(crate::tagcodec::encode_send_tag(&req.rid)),
        };
        self.api
            .enqueue(queue, &self.client_id, &req.encode_to_vec(), opts)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intermediate_codec_roundtrip() {
        let raw = encode_intermediate("stage-2", b"Enter PIN:", b"acct=7");
        let (q, p, s) = decode_intermediate(&raw).unwrap();
        assert_eq!(q, "stage-2");
        assert_eq!(p, b"Enter PIN:");
        assert_eq!(s, b"acct=7");
    }

    #[test]
    fn intermediate_codec_rejects_garbage() {
        assert!(decode_intermediate(b"\xFF\xFF\xFF\xFF").is_err());
    }
}
