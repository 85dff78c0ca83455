//! Content-based retrieval (§1: "The QM may support content-based retrieval
//! of the elements"; §10: scheduling requests by content "usually requires a
//! QM with content-based retrieval capability").
//!
//! A [`Predicate`] filters dequeue candidates and read-only queries. §10's
//! "highest dollar amount first" is a predicate dequeue over the queue, not
//! a component of its own: an attribute comparison such as
//! `Predicate::AttrGe("amount", 1000)`.

use crate::element::Element;

/// A filter over queue elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Attribute `name` equals `value`.
    AttrEq(String, String),
    /// Attribute `name`, parsed as i64, is ≥ `min` (e.g. dollar amounts).
    AttrGe(String, i64),
    /// Element priority is ≥ the bound.
    PriorityGe(u8),
    /// Payload contains the byte substring.
    PayloadContains(Vec<u8>),
    /// Both hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience: `a AND b`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Convenience: `a OR b`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Convenience: `NOT a`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluate against an element.
    pub fn matches(&self, e: &Element) -> bool {
        match self {
            Predicate::True => true,
            Predicate::AttrEq(n, v) => e.attr(n) == Some(v.as_str()),
            Predicate::AttrGe(n, min) => e
                .attr(n)
                .and_then(|v| v.parse::<i64>().ok())
                .map(|v| v >= *min)
                .unwrap_or(false),
            Predicate::PriorityGe(p) => e.priority >= *p,
            Predicate::PayloadContains(needle) => {
                needle.is_empty()
                    || e.payload
                        .windows(needle.len())
                        .any(|w| w == needle.as_slice())
            }
            Predicate::And(a, b) => a.matches(e) && b.matches(e),
            Predicate::Or(a, b) => a.matches(e) || b.matches(e),
            Predicate::Not(a) => !a.matches(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Eid;

    fn elem(attrs: &[(&str, &str)], priority: u8, payload: &[u8]) -> Element {
        Element {
            eid: Eid(1),
            priority,
            seq: 0,
            abort_count: 0,
            abort_code: 0,
            attrs: attrs
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn attr_eq() {
        let e = elem(&[("kind", "transfer")], 0, b"");
        assert!(Predicate::AttrEq("kind".into(), "transfer".into()).matches(&e));
        assert!(!Predicate::AttrEq("kind".into(), "order".into()).matches(&e));
        assert!(!Predicate::AttrEq("missing".into(), "x".into()).matches(&e));
    }

    #[test]
    fn attr_ge_numeric() {
        let e = elem(&[("amount", "5000")], 0, b"");
        assert!(Predicate::AttrGe("amount".into(), 1000).matches(&e));
        assert!(Predicate::AttrGe("amount".into(), 5000).matches(&e));
        assert!(!Predicate::AttrGe("amount".into(), 5001).matches(&e));
        let bad = elem(&[("amount", "lots")], 0, b"");
        assert!(!Predicate::AttrGe("amount".into(), 0).matches(&bad));
    }

    #[test]
    fn priority_and_payload() {
        let e = elem(&[], 7, b"hello world");
        assert!(Predicate::PriorityGe(7).matches(&e));
        assert!(!Predicate::PriorityGe(8).matches(&e));
        assert!(Predicate::PayloadContains(b"lo wo".to_vec()).matches(&e));
        assert!(!Predicate::PayloadContains(b"xyz".to_vec()).matches(&e));
        assert!(Predicate::PayloadContains(vec![]).matches(&e));
    }

    #[test]
    fn combinators() {
        let e = elem(&[("k", "v")], 3, b"abc");
        let p = Predicate::AttrEq("k".into(), "v".into())
            .and(Predicate::PriorityGe(2))
            .or(Predicate::PayloadContains(b"zzz".to_vec()));
        assert!(p.matches(&e));
        assert!(!p.clone().not().matches(&e));
        assert!(Predicate::True.matches(&e));
    }
}
