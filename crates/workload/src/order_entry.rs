//! Order-entry workload: the §1 batch-input motivation ("requests can be
//! captured reliably in a queue, and processed later in a batch").
//!
//! Orders arrive (possibly while no server is running at all), accumulate in
//! the request queue, and are validated against a catalog when the batch
//! servers come up. Orders for unknown items are *rejected* (Failed reply);
//! orders for the designated poison item make the handler abort, exercising
//! the error-queue path.

use rrq_core::error::{CoreError, CoreResult};
use rrq_core::server::{Handler, HandlerError, HandlerOutcome};
use rrq_qm::repository::Repository;
use rrq_storage::codec::{put, Reader};
use rrq_txn::LockKey;
use std::sync::Arc;

/// Lock namespace for inventory keys.
pub const INV_NS: u32 = 8;

/// An order request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// Catalog item id.
    pub item: u32,
    /// Quantity requested.
    pub qty: u32,
}

impl Order {
    /// Encode as a request body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put::u32(&mut buf, self.item);
        put::u32(&mut buf, self.qty);
        buf
    }

    /// Decode from a request body.
    pub fn decode(raw: &[u8]) -> CoreResult<Order> {
        let m = |e: rrq_storage::StorageError| CoreError::Malformed(e.to_string());
        let mut r = Reader::new(raw);
        Ok(Order {
            item: r.u32().map_err(m)?,
            qty: r.u32().map_err(m)?,
        })
    }
}

/// The item id that makes the handler abort (poison request).
pub const POISON_ITEM: u32 = u32::MAX;

fn item_key(item: u32) -> Vec<u8> {
    format!("inv/{item:08}").into_bytes()
}

/// Stock `count` units of items `0..items` (partition 0's store).
pub fn seed_inventory(repo: &Repository, items: u32, count: u32) -> CoreResult<()> {
    let store = repo.store();
    let t = u64::MAX - 201;
    store.begin(t)?;
    for i in 0..items {
        store.put(t, item_key(i), &count.to_le_bytes())?;
    }
    store.commit(t)?;
    Ok(())
}

/// Remaining stock of `item`, summed across partition stores (the item
/// row lives on whichever partition seeded it).
pub fn stock(repo: &Repository, item: u32) -> CoreResult<u32> {
    let mut sum = 0;
    for p in 0..repo.partitions() {
        sum += repo
            .store_at(p)
            .get(None, &item_key(item))?
            .map(|raw| u32::from_le_bytes(raw.try_into().unwrap_or([0; 4])))
            .unwrap_or(0);
    }
    Ok(sum)
}

/// The order handler: reserves inventory, rejects unknown items and
/// insufficient stock, aborts on the poison item.
pub fn order_handler() -> Handler {
    Arc::new(|ctx, req| {
        let order = Order::decode(&req.body).map_err(|e| HandlerError::Reject(e.to_string()))?;
        if order.item == POISON_ITEM {
            return Err(HandlerError::Abort("poison order".into()));
        }
        let key = item_key(order.item);
        ctx.txn
            .lock_exclusive(&LockKey::new(INV_NS, key.clone()))
            .map_err(|e| HandlerError::Abort(e.to_string()))?;
        let txn = ctx.txn.id().raw();
        let Some(raw) = ctx
            .store()
            .get(Some(txn), &key)
            .map_err(|e| HandlerError::Abort(e.to_string()))?
        else {
            return Err(HandlerError::Reject(format!("unknown item {}", order.item)));
        };
        let have = u32::from_le_bytes(raw.try_into().unwrap_or([0; 4]));
        if have < order.qty {
            return Err(HandlerError::Reject(format!(
                "insufficient stock: want {}, have {have}",
                order.qty
            )));
        }
        ctx.store()
            .put(txn, &key, &(have - order.qty).to_le_bytes())
            .map_err(|e| HandlerError::Abort(e.to_string()))?;
        Ok(HandlerOutcome::Reply(
            format!("reserved {}x{}", order.qty, order.item).into_bytes(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_core::api::{LocalQm, QmApi};
    use rrq_core::request::{Reply, ReplyStatus, Request};
    use rrq_core::rid::Rid;
    use rrq_core::server::{Server, ServerConfig};
    use rrq_qm::ops::{DequeueOptions, EnqueueOptions};
    use rrq_storage::codec::{Decode, Encode};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn order_codec_roundtrip() {
        let o = Order { item: 3, qty: 9 };
        assert_eq!(Order::decode(&o.encode()).unwrap(), o);
    }

    #[test]
    fn batch_capture_then_process() {
        let repo = Arc::new(Repository::create("orders").unwrap());
        repo.create_queue_defaults("orders").unwrap();
        repo.create_queue_defaults("reply.c").unwrap();
        seed_inventory(&repo, 3, 100).unwrap();

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("orders", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();

        // Capture a batch with NO server running (§1 batch input).
        for i in 0..10u64 {
            let req = Request::new(
                Rid::new("c", i + 1),
                "reply.c",
                "order",
                Order {
                    item: (i % 3) as u32,
                    qty: 2,
                }
                .encode(),
            );
            api.enqueue(
                "orders",
                "c",
                &req.encode_to_vec(),
                EnqueueOptions::default(),
            )
            .unwrap();
        }
        assert_eq!(api.depth("orders").unwrap(), 10);

        // Now bring the server up and drain the batch.
        let server = Server::new(
            Arc::clone(&repo),
            ServerConfig::new("s", "orders"),
            order_handler(),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let h = server.spawn(Arc::clone(&stop));
        for _ in 0..10 {
            let elem = api
                .dequeue(
                    "reply.c",
                    "c",
                    DequeueOptions {
                        block: Some(Duration::from_secs(10)),
                        ..Default::default()
                    },
                )
                .unwrap();
            let reply = Reply::decode_all(&elem.payload).unwrap();
            assert_eq!(reply.status, ReplyStatus::Ok);
        }
        // 10 orders × 2 units spread over items 0..3 (4,3,3 orders).
        assert_eq!(stock(&repo, 0).unwrap(), 100 - 8);
        assert_eq!(stock(&repo, 1).unwrap(), 100 - 6);
        assert_eq!(stock(&repo, 2).unwrap(), 100 - 6);

        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
    }

    #[test]
    fn unknown_item_rejected_with_failed_reply() {
        let repo = Arc::new(Repository::create("orders2").unwrap());
        repo.create_queue_defaults("orders").unwrap();
        repo.create_queue_defaults("reply.c").unwrap();
        seed_inventory(&repo, 1, 10).unwrap();
        let server = Server::new(
            Arc::clone(&repo),
            ServerConfig::new("s", "orders"),
            order_handler(),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let h = server.spawn(Arc::clone(&stop));

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("orders", "c", false).unwrap();
        api.register("reply.c", "c", false).unwrap();
        let req = Request::new(
            Rid::new("c", 1),
            "reply.c",
            "order",
            Order { item: 77, qty: 1 }.encode(),
        );
        api.enqueue(
            "orders",
            "c",
            &req.encode_to_vec(),
            EnqueueOptions::default(),
        )
        .unwrap();
        let elem = api
            .dequeue(
                "reply.c",
                "c",
                DequeueOptions {
                    block: Some(Duration::from_secs(10)),
                    ..Default::default()
                },
            )
            .unwrap();
        let reply = Reply::decode_all(&elem.payload).unwrap();
        assert_eq!(reply.status, ReplyStatus::Failed);
        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
    }

    #[test]
    fn poison_order_lands_in_error_queue() {
        let repo = Arc::new(Repository::create("orders3").unwrap());
        let mut meta = rrq_qm::meta::QueueMeta::with_defaults("orders");
        meta.retry_limit = 2;
        repo.qm().create_queue(meta).unwrap();
        repo.create_queue_defaults("reply.c").unwrap();
        seed_inventory(&repo, 1, 10).unwrap();
        let server = Server::new(
            Arc::clone(&repo),
            ServerConfig::new("s", "orders"),
            order_handler(),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let h = server.spawn(Arc::clone(&stop));

        let api = LocalQm::new(Arc::clone(&repo));
        api.register("orders", "c", false).unwrap();
        let req = Request::new(
            Rid::new("c", 1),
            "reply.c",
            "order",
            Order {
                item: POISON_ITEM,
                qty: 1,
            }
            .encode(),
        );
        api.enqueue(
            "orders",
            "c",
            &req.encode_to_vec(),
            EnqueueOptions::default(),
        )
        .unwrap();

        // Wait until the poison order lands in the error queue.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while repo.qm().depth("orders.errors").unwrap_or(0) == 0 {
            assert!(std::time::Instant::now() < deadline, "never errored out");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(api.depth("orders").unwrap(), 0);
        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
    }
}
