//! Key layout of the queue store.
//!
//! All queue state lives in one ordered key-value namespace per repository:
//!
//! | prefix | contents |
//! |--------|----------|
//! | `m/<queue>`                | [`crate::meta::QueueMeta`] |
//! | `e/<queue>/<ord>`          | live [`crate::element::Element`]s, ordered |
//! | `x/<eid-be>`               | eid → element key (live-element index) |
//! | `d/<eid-be>`               | the element a stable registration's last tagged dequeue retained, for `Read`/`Rereceive`; at most one per registration |
//! | `k/<eid-be>`               | kill tombstones (§7 cancellation in flight) |
//! | `r/<queue>/<registrant>`   | [`crate::registration::Registration`] |
//! | `t/<trigger>`              | [`crate::trigger::Trigger`] |
//! | `c/epoch`                  | restart epoch counter |
//!
//! The element ordering key `<ord>` is `(0xFF - priority) ‖ seq_be`, so a
//! plain ascending prefix scan yields highest-priority-first, FIFO within a
//! priority — the dequeue order.

use crate::element::{Eid, Priority};

/// Key of a queue's metadata record.
pub fn meta_key(queue: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + queue.len());
    k.extend_from_slice(b"m/");
    k.extend_from_slice(queue.as_bytes());
    k
}

/// Prefix under which a queue's live elements sort.
pub fn element_prefix(queue: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(3 + queue.len());
    k.extend_from_slice(b"e/");
    k.extend_from_slice(queue.as_bytes());
    k.push(b'/');
    k
}

/// Ordering suffix for an element: priority-descending, then seq-ascending.
pub fn ord_suffix(priority: Priority, seq: u64) -> [u8; 9] {
    let mut s = [0u8; 9];
    s[0] = 0xFF - priority;
    s[1..].copy_from_slice(&seq.to_be_bytes());
    s
}

/// Full key of a live element.
pub fn element_key(queue: &str, priority: Priority, seq: u64) -> Vec<u8> {
    let mut k = element_prefix(queue);
    k.extend_from_slice(&ord_suffix(priority, seq));
    k
}

/// Recover the queue name from a live-element key (`e/<queue>/<ord>`).
///
/// The 9-byte ordering suffix has fixed length, so the queue name is
/// everything between the `e/` prefix and the final `/<ord>` — robust even
/// if a queue name itself contains `/`.
pub fn parse_element_key(key: &[u8]) -> Option<&str> {
    let ord_len = 9 + 1; // '/' separator + ord_suffix
    if key.len() < 2 + 1 + ord_len || !key.starts_with(b"e/") {
        return None;
    }
    let sep = key.len() - ord_len;
    if key[sep] != b'/' {
        return None;
    }
    std::str::from_utf8(&key[2..sep]).ok()
}

/// Key of the live-element index entry for `eid`.
pub fn index_key(eid: Eid) -> Vec<u8> {
    let mut k = Vec::with_capacity(10);
    k.extend_from_slice(b"x/");
    k.extend_from_slice(&eid.raw().to_be_bytes());
    k
}

/// Key `eid`'s element moves to when a tagged dequeue retains it.
pub fn retained_key(eid: Eid) -> Vec<u8> {
    let mut k = Vec::with_capacity(10);
    k.extend_from_slice(b"d/");
    k.extend_from_slice(&eid.raw().to_be_bytes());
    k
}

/// Key of the kill tombstone for `eid`.
pub fn kill_key(eid: Eid) -> Vec<u8> {
    let mut k = Vec::with_capacity(10);
    k.extend_from_slice(b"k/");
    k.extend_from_slice(&eid.raw().to_be_bytes());
    k
}

/// The eid an `x/`, `d/` or `k/` key ends in.
pub fn eid_of(key: &[u8]) -> Option<Eid> {
    let raw = key.get(2..)?.try_into().ok()?;
    Some(Eid(u64::from_be_bytes(raw)))
}

/// Key of a registration record.
pub fn registration_key(queue: &str, registrant: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(3 + queue.len() + registrant.len());
    k.extend_from_slice(b"r/");
    k.extend_from_slice(queue.as_bytes());
    k.push(b'/');
    k.extend_from_slice(registrant.as_bytes());
    k
}

/// Key of a trigger record.
pub fn trigger_key(id: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + id.len());
    k.extend_from_slice(b"t/");
    k.extend_from_slice(id.as_bytes());
    k
}

/// Key of the repository epoch counter.
pub fn epoch_key() -> Vec<u8> {
    b"c/epoch".to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_key_sorts_priority_desc_then_seq_asc() {
        let hi_p = element_key("q", 9, 100);
        let lo_p_early = element_key("q", 1, 1);
        let lo_p_late = element_key("q", 1, 2);
        assert!(hi_p < lo_p_early, "higher priority sorts first");
        assert!(lo_p_early < lo_p_late, "FIFO within priority");
    }

    #[test]
    fn element_keys_stay_under_queue_prefix() {
        let k = element_key("req", 0, 42);
        assert!(k.starts_with(&element_prefix("req")));
        assert!(!k.starts_with(&element_prefix("reply")));
    }

    #[test]
    fn queue_names_with_shared_prefixes_do_not_collide() {
        // "req" vs "req2": the '/' separator keeps prefixes disjoint.
        let a = element_prefix("req");
        let k = element_key("req2", 0, 1);
        assert!(!k.starts_with(&a));
    }

    #[test]
    fn distinct_namespaces() {
        let eid = Eid(7);
        let keys = [
            meta_key("q"),
            element_key("q", 0, 1),
            index_key(eid),
            retained_key(eid),
            kill_key(eid),
            registration_key("q", "c"),
            trigger_key("t"),
            epoch_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn eid_keys_give_their_eid_back() {
        let eid = Eid::compose(3, 77);
        for key in [index_key(eid), retained_key(eid), kill_key(eid)] {
            assert_eq!(eid_of(&key), Some(eid));
        }
        assert_eq!(eid_of(b"x/short"), None);
        assert_eq!(eid_of(b"x"), None);
    }

    #[test]
    fn parse_element_key_round_trips() {
        let k = element_key("req", 3, 42);
        assert_eq!(parse_element_key(&k), Some("req"));
        // Queue names containing '/' still parse: the suffix is fixed-width.
        let k2 = element_key("a/b", 0, 7);
        assert_eq!(parse_element_key(&k2), Some("a/b"));
        assert_eq!(parse_element_key(b"m/req"), None);
        assert_eq!(parse_element_key(b"e/short"), None);
    }

    #[test]
    fn seq_big_endian_ordering() {
        assert!(ord_suffix(0, 255).as_slice() < ord_suffix(0, 256).as_slice());
        assert!(ord_suffix(0, u64::MAX - 1).as_slice() < ord_suffix(0, u64::MAX).as_slice());
    }
}
