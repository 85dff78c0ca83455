// Fixture: the queue catalog's write lock may cover the fill's one store
// read, never the force of the system transaction that changes a queue.
pub struct S;

pub fn lookup(s: &S) -> Option<Info> {
    s.catalog.read().slots.get("q").cloned()
}

pub fn fill(s: &S) -> Info {
    let mut catalog = s.catalog.write();
    let raw = s.durable.get(None, b"m/q");
    catalog.slots.insert("q", decode(raw))
}

pub fn update_queue_bad(s: &S) {
    let mut catalog = s.catalog.write();
    s.durable.put(9, b"m/q", b"stopped");
    s.wal.sync();
    catalog.slots.remove("q");
}
