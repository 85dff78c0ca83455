//! Request identifiers.
//!
//! "The client attaches a request-id (rid) to each request" (§3). A rid is
//! client-scoped: the client name plus a serial the client chooses. The
//! serial discipline (monotonic per client) is what lets connect-time
//! resynchronization compare "the rid of the last request [the system]
//! received" with "the rid of the request that corresponds to the last reply
//! it sent".

use rrq_storage::codec::{len, put, Decode, Encode, Reader};
use rrq_storage::StorageResult;
use std::fmt;

/// A request id: `client` ⊕ `serial`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Issuing client's name.
    pub client: String,
    /// Client-chosen serial (monotonic per client in the standard model).
    pub serial: u64,
}

impl Rid {
    /// Construct a rid.
    pub fn new(client: impl Into<String>, serial: u64) -> Self {
        Rid {
            client: client.into(),
            serial,
        }
    }

    /// The canonical string form `client/serial` (used as the `rid`
    /// element attribute).
    pub fn to_attr(&self) -> String {
        format!("{}/{}", self.client, self.serial)
    }

    /// Parse the canonical form.
    pub fn from_attr(s: &str) -> Option<Rid> {
        let (client, serial) = s.rsplit_once('/')?;
        Some(Rid {
            client: client.to_string(),
            serial: serial.parse().ok()?,
        })
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.client, self.serial)
    }
}

impl Encode for Rid {
    fn encode(&self, buf: &mut Vec<u8>) {
        put::string(buf, &self.client);
        put::u64(buf, self.serial);
    }

    fn encoded_len(&self) -> usize {
        len::bytes(self.client.len()) + 8
    }
}

impl Decode for Rid {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(Rid {
            client: r.string()?,
            serial: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_roundtrip() {
        let r = Rid::new("client-1", 42);
        assert_eq!(r.to_attr(), "client-1/42");
        assert_eq!(Rid::from_attr("client-1/42"), Some(r));
    }

    #[test]
    fn attr_with_slashes_in_client() {
        let r = Rid::new("node/a/client", 7);
        assert_eq!(Rid::from_attr(&r.to_attr()), Some(r));
    }

    #[test]
    fn bad_attrs_rejected() {
        assert_eq!(Rid::from_attr("no-slash"), None);
        assert_eq!(Rid::from_attr("x/notanumber"), None);
    }

    #[test]
    fn codec_roundtrip() {
        let r = Rid::new("c", u64::MAX);
        assert_eq!(Rid::decode_all(&r.encode_to_vec()).unwrap(), r);
    }

    #[test]
    fn display() {
        assert_eq!(Rid::new("c", 3).to_string(), "c/3");
    }
}
