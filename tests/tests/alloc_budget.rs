//! Allocator budget of one request round trip.
//!
//! The loop is the one the benchmark's inline workloads time:
//! `Clerk::send → Server::run_once → Clerk::receive` on one thread over
//! `LocalQm`. A counting global allocator counts allocator calls (alloc and
//! realloc) made *inside* those three calls, per thread, so tests running in
//! parallel in this binary cannot disturb the count. It also counts the
//! body-sized ones (at least 4 KiB) of a 4 KiB echo round trip: each is one
//! copy of the body made somewhere between the clerk and the tree.

use rrq_core::api::LocalQm;
use rrq_core::clerk::{Clerk, ClerkConfig};
use rrq_core::request::ReplyStatus;
use rrq_core::rid::Rid;
use rrq_core::server::{Handler, HandlerOutcome, Served, Server, ServerConfig};
use rrq_qm::repository::Repository;
use rrq_workload::bank::{self, Transfer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// An allocation at least this large is a copy of a 4 KiB body.
const BODY: usize = 4096;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BIG: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            CALLS.with(|c| c.set(c.get() + 1));
            if size >= BODY {
                BIG.with(|c| c.set(c.get() + 1));
            }
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// `const` thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls and body-sized allocations of some span of work.
#[derive(Debug, Default, Clone, Copy)]
struct Count {
    calls: u64,
    big: u64,
}

impl std::ops::AddAssign for Count {
    fn add_assign(&mut self, o: Count) {
        self.calls += o.calls;
        self.big += o.big;
    }
}

/// Run `f` with this thread's counting on.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Count) {
    CALLS.with(|c| c.set(0));
    BIG.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let count = Count {
        calls: CALLS.with(Cell::get),
        big: BIG.with(Cell::get),
    };
    (out, count)
}

const WARMUP: u64 = 200;
const ROUNDS: u64 = 1_000;
const ACCOUNTS: u32 = 1_000;

/// Per-call totals over the counted rounds.
#[derive(Debug, Default)]
struct Breakdown {
    send: Count,
    run_once: Count,
    receive: Count,
}

impl Breakdown {
    fn total(&self) -> Count {
        let mut t = self.send;
        t += self.run_once;
        t += self.receive;
        t
    }

    fn report(&self, what: &str) -> String {
        let per = |c: Count| {
            format!(
                "{:.2} calls, {:.2} >= 4 KiB",
                c.calls as f64 / ROUNDS as f64,
                c.big as f64 / ROUNDS as f64
            )
        };
        format!(
            "{what}, per round trip: send {}; run_once {}; receive {}; total {}",
            per(self.send),
            per(self.run_once),
            per(self.receive),
            per(self.total())
        )
    }
}

/// Serve `WARMUP + ROUNDS` requests through the inline loop and count the
/// last `ROUNDS` of them.
fn round_trips(
    op: &str,
    handler: Handler,
    seed: impl FnOnce(&Repository),
    body: impl Fn(u64) -> Vec<u8>,
    expect: impl Fn(&[u8]) -> Vec<u8>,
) -> Breakdown {
    let repo = Arc::new(Repository::create("alloc-budget").unwrap());
    repo.create_queue_defaults("req").unwrap();
    repo.create_queue_defaults("reply.c0").unwrap();
    seed(&repo);
    let mut scfg = ServerConfig::new("s0", "req");
    scfg.block = Duration::ZERO;
    let server = Server::new(Arc::clone(&repo), scfg, handler).unwrap();
    let mut ccfg = ClerkConfig::new("c0", "req");
    ccfg.receive_block = Duration::ZERO;
    let clerk = Clerk::new(Arc::new(LocalQm::new(Arc::clone(&repo))), ccfg);
    clerk.connect().unwrap();

    let mut b = Breakdown::default();
    for serial in 1..=WARMUP + ROUNDS {
        let body = body(serial);
        let expected = expect(&body);
        let rid = Rid::new("c0", serial);
        let arg = rid.clone();
        let (sent, send) = counted(|| clerk.send(op, body, arg));
        sent.unwrap();
        let (served, run_once) = counted(|| server.run_once());
        assert!(matches!(served, Ok(Served::Committed)), "{served:?}");
        let (reply, receive) = counted(|| clerk.receive(b""));
        let reply = reply.unwrap();
        assert_eq!(reply.rid, rid);
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.body, expected);
        if serial > WARMUP {
            b.send += send;
            b.run_once += run_once;
            b.receive += receive;
        }
    }
    b
}

#[test]
fn a_bank_round_trip_makes_at_most_85_allocator_calls() {
    let b = round_trips(
        "transfer",
        bank::single_txn_handler(),
        |repo| bank::seed_accounts(repo, ACCOUNTS, 1_000).unwrap(),
        |serial| {
            let from = (serial * 7919 % u64::from(ACCOUNTS)) as u32;
            let to = (from + 1 + (serial % 97) as u32) % ACCOUNTS;
            Transfer {
                from: from.min(to),
                to: from.max(to),
                amount: (serial % 99 + 1) as i64,
            }
            .encode()
        },
        |_| b"transferred".to_vec(),
    );
    let per = b.total().calls as f64 / ROUNDS as f64;
    assert!(per <= 85.0, "{}", b.report("bank"));
}

#[test]
fn a_4k_echo_round_trip_copies_the_body_at_most_7_times() {
    let echo: Handler = Arc::new(|_ctx, req| Ok(HandlerOutcome::Reply(req.body.clone())));
    let b = round_trips(
        "echo",
        echo,
        |_| {},
        |serial| {
            (0..BODY)
                .map(|i| (serial as usize).wrapping_mul(31).wrapping_add(i) as u8)
                .collect()
        },
        <[u8]>::to_vec,
    );
    let per = b.total().big as f64 / ROUNDS as f64;
    assert!(per <= 7.0, "{}", b.report("4 KiB echo"));
}
