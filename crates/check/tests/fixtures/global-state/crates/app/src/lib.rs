//! no-global-state fixture: every process-global shape the rule rejects,
//! beside the shapes it leaves alone.
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Mutex, OnceLock, RwLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
pub static TICKS: AtomicU64 = AtomicU64::new(0);
pub(crate) static SESSION: Mutex<()> = Mutex::new(());
static REGISTRY: RwLock<Vec<u64>> = RwLock::new(Vec::new());
static DETECTOR: OnceLock<String> = OnceLock::new();
static mut COUNT: u64 = 0;

thread_local! {
    static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    static STACK: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

// Immutable statics and constants are fine.
static TABLE: [u32; 4] = [1, 2, 3, 4];
const LIMIT: usize = 8;

/// State owned by an instance is the point.
pub struct Handle {
    pub enabled: AtomicBool,
    pub slot: Cell<u8>,
}

#[cfg(test)]
mod tests {
    static TEST_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
}
