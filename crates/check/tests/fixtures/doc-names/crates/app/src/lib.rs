//! A crate for the `doc-names` fixture to name.

pub mod store;

pub use store::Ledger;

/// Open nothing.
pub fn open() {}
