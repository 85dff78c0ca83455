//! Encoding of the clerk's operation tags.
//!
//! §5 maps the Client Model onto tags: `Send` tags its Enqueue with the rid;
//! `Receive` tags its Dequeue with "ckpt and the rid of the previous Send".
//! The QM stores the tag opaquely; this module defines the clerk's private
//! encoding so connect-time resynchronization can read it back.

use crate::error::{CoreError, CoreResult};
use crate::rid::Rid;
use rrq_storage::codec::{len, put, Decode, Encode, Reader};

/// Tag placed on the `Send` enqueue: just the rid.
pub fn encode_send_tag(rid: &Rid) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + rid.encoded_len());
    buf.push(b'S');
    rid.encode(&mut buf);
    buf
}

/// Tag placed on the `Receive` dequeue: the rid of the previous Send plus
/// the client's checkpoint bytes.
pub fn encode_receive_tag(rid: &Rid, ckpt: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + rid.encoded_len() + len::bytes(ckpt.len()));
    buf.push(b'R');
    rid.encode(&mut buf);
    put::bytes(&mut buf, ckpt);
    buf
}

/// A decoded clerk tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClerkTag {
    /// From a Send (enqueue) operation.
    Send {
        /// The request id sent.
        rid: Rid,
    },
    /// From a Receive (dequeue) operation.
    Receive {
        /// The rid of the request whose reply was received.
        rid: Rid,
        /// The checkpoint the client supplied with the Receive.
        ckpt: Vec<u8>,
    },
}

/// Decode a clerk tag (either kind).
pub fn decode_tag(raw: &[u8]) -> CoreResult<ClerkTag> {
    if raw.is_empty() {
        return Err(CoreError::Malformed("empty clerk tag".into()));
    }
    let mut r = Reader::new(&raw[1..]);
    match raw[0] {
        b'S' => {
            let rid = Rid::decode(&mut r).map_err(|e| CoreError::Malformed(e.to_string()))?;
            Ok(ClerkTag::Send { rid })
        }
        b'R' => {
            let rid = Rid::decode(&mut r).map_err(|e| CoreError::Malformed(e.to_string()))?;
            let ckpt = r.bytes().map_err(|e| CoreError::Malformed(e.to_string()))?;
            Ok(ClerkTag::Receive { rid, ckpt })
        }
        b => Err(CoreError::Malformed(format!("unknown tag kind {b:#x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_tag_roundtrip() {
        let rid = Rid::new("c1", 9);
        let tag = encode_send_tag(&rid);
        assert_eq!(decode_tag(&tag).unwrap(), ClerkTag::Send { rid });
    }

    #[test]
    fn receive_tag_roundtrip() {
        let rid = Rid::new("c1", 9);
        let tag = encode_receive_tag(&rid, b"ticket=42");
        assert_eq!(
            decode_tag(&tag).unwrap(),
            ClerkTag::Receive {
                rid,
                ckpt: b"ticket=42".to_vec()
            }
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode_tag(&[]).is_err());
        assert!(decode_tag(b"Xjunk").is_err());
        assert!(decode_tag(b"S").is_err());
    }
}
