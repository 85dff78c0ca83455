//! A module with one type.

/// A ledger.
pub struct Ledger;

impl Ledger {
    /// Post nothing.
    pub fn post(&self) {}
}
