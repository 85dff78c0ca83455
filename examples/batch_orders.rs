//! §1 batch input and load sharing: orders are captured reliably while no
//! server is running, an alert fires when the backlog crosses its threshold,
//! and a pool of servers later drains the batch — every order fulfilled
//! exactly once and stock conserved, however the pool split the work.
//!
//! Run with:
//! ```sh
//! cargo run --release -p rrq-bench --example batch_orders
//! ```

use rrq_core::api::{LocalQm, QmApi};
use rrq_core::request::{Reply, ReplyStatus, Request};
use rrq_core::rid::Rid;
use rrq_core::server::spawn_pool;
use rrq_qm::meta::QueueMeta;
use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
use rrq_qm::repository::Repository;
use rrq_storage::codec::{Decode, Encode};
use rrq_workload::order_entry::{self, Order};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const ORDERS: u64 = 40;
const ITEMS: u32 = 5;
const STOCK: u32 = 1_000;

fn order(i: u64) -> Order {
    Order {
        item: (i % ITEMS as u64) as u32,
        qty: 1 + (i % 3) as u32,
    }
}

fn main() {
    let repo = Arc::new(Repository::create("orders-node").expect("create repository"));
    let mut meta = QueueMeta::with_defaults("orders");
    meta.alert_threshold = Some(25); // §9 alert threshold
    repo.qm().create_queue(meta).expect("create orders queue");
    repo.create_queue_defaults("reply.shop")
        .expect("reply queue");
    order_entry::seed_inventory(&repo, ITEMS, STOCK).expect("seed inventory");

    // Phase 1: capture a batch with NO servers running at all.
    let api = LocalQm::new(Arc::clone(&repo));
    api.register("orders", "shop", false).unwrap();
    api.register("reply.shop", "shop", false).unwrap();
    for i in 0..ORDERS {
        let req = Request::new(
            Rid::new("shop", i + 1),
            "reply.shop",
            "order",
            order(i).encode(),
        );
        api.enqueue(
            "orders",
            "shop",
            &req.encode_to_vec(),
            EnqueueOptions::default(),
        )
        .unwrap();
    }
    println!(
        "captured {} orders with no server running",
        api.depth("orders").unwrap()
    );
    let alerts = repo.qm().take_alerts();
    println!("alerts raised while batching: {alerts:?}");
    assert!(
        alerts.contains(&"orders".to_string()),
        "threshold alert expected"
    );

    // Phase 2: bring up a pool of 4 servers; they share the drain.
    let (servers, handles, stop) =
        spawn_pool(&repo, "orders", 4, order_entry::order_handler()).expect("spawn pool");
    let mut fulfilled = BTreeSet::new();
    for _ in 0..ORDERS {
        let elem = api
            .dequeue(
                "reply.shop",
                "shop",
                DequeueOptions {
                    block: Some(Duration::from_secs(30)),
                    ..Default::default()
                },
            )
            .expect("reply");
        let reply = Reply::decode_all(&elem.payload).unwrap();
        assert_eq!(reply.status, ReplyStatus::Ok, "{reply:?}");
        assert!(fulfilled.insert(reply.rid.serial), "{} twice", reply.rid);
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    // Exactly once: one reply per order, one committed server transaction
    // per reply, and nothing left queued.
    println!("orders fulfilled: {}/{ORDERS}", fulfilled.len());
    assert_eq!(fulfilled, (1..=ORDERS).collect::<BTreeSet<u64>>());
    let shares: Vec<u64> = servers.iter().map(|s| s.stats().committed).collect();
    println!("per-server shares: {shares:?}");
    assert_eq!(shares.iter().sum::<u64>(), ORDERS);
    assert_eq!(api.depth("orders").unwrap(), 0);
    assert_eq!(api.depth("reply.shop").unwrap(), 0);
    // Stock conserved: each item lost exactly what its orders reserved.
    for item in 0..ITEMS {
        let ordered: u32 = (0..ORDERS)
            .map(order)
            .filter(|o| o.item == item)
            .map(|o| o.qty)
            .sum();
        let left = order_entry::stock(&repo, item).unwrap();
        println!("item {item}: stock remaining {left}");
        assert_eq!(left + ordered, STOCK, "item {item}");
    }
    println!("OK: batch captured, alert raised, every order served exactly once");
}
