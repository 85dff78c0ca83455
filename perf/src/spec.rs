//! The benchmark's contract: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` is generated from these tables
//! (`perf manifest`) and a test keeps the file and the tables equal, so a
//! name can only be added or changed here.

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "inline_bank",
        why: "send, run_once, receive on one thread with 16-byte transfers: per-request CPU of the full round trip, no thread hand-off",
    },
    WorkloadSpec {
        name: "inline_echo_4k",
        why: "same loop with 4096-byte echo bodies: bytes (copy, checksum, codec, log) dominate instead of operations",
    },
    WorkloadSpec {
        name: "pool_drain",
        why: "two servers drain one preloaded hot queue: the only workload where dequeuers race; set-up is the pure enqueue path",
    },
    WorkloadSpec {
        name: "crash_recover",
        why: "timed reopen behind a checkpoint and a 40000-request log tail, then the recovered node drains 20000 queued requests: storage used for reading, time without service",
    },
];

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wal_bytes_per_req",
        unit: "B/req",
        better: Better::Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer rows, grouped by the end-to-end metric each should move (the
/// grouping and each row's definition are in `perf/README.md`).
pub const PER_LAYER: [PerLayer; 47] = [
    // -> latency_p50_us / throughput_rps on inline_bank (per-operation rows)
    lower("core.clerk.send_us", "us"),
    lower("core.server.run_once_us", "us"),
    lower("core.clerk.receive_us", "us"),
    lower("bench.harness_us", "us"),
    lower("qm.ops.enqueue_ns", "ns"),
    lower("qm.ops.dequeue_ns", "ns"),
    lower("qm.qindex.insert_remove_ns", "ns"),
    lower("txn.lock.lock_unlock_ns", "ns"),
    lower("txn.manager.begin_commit_ns", "ns"),
    lower("storage.kv.put_commit_ns", "ns"),
    lower("storage.kv.get_ns", "ns"),
    lower("storage.wal.append_ns", "ns"),
    lower("storage.wal.sync_ns", "ns"),
    lower("txn.manager.commits_per_req", "count"),
    lower("txn.lock.grants_per_req", "count"),
    lower("storage.wal.syncs_per_req", "count"),
    lower("storage.wal.appends_per_req", "count"),
    lower("budget.unattributed_pct", "%"),
    // -> throughput_rps / wal_bytes_per_req on inline_echo_4k (per-byte rows)
    lower("storage.codec.request_encode_ns", "ns"),
    lower("storage.codec.request_decode_ns", "ns"),
    lower("storage.wal.append_4k_ns", "ns"),
    lower("storage.wal.bytes_per_user_byte", "B/B"),
    lower("qm.ops.enqueue_4k_ns", "ns"),
    lower("qm.ops.dequeue_4k_ns", "ns"),
    // -> throughput_rps (and setup_s) on pool_drain
    lower("qm.ops.lock_skips_per_dequeue", "count"),
    lower("txn.lock.waited_share", "%"),
    lower("txn.lock.deadlocks", "count"),
    lower("txn.lock.timeouts", "count"),
    lower("core.server.rolled_per_req", "count"),
    higher("storage.group_commit.requests_per_group", "count"),
    higher("core.server.solo_drain_rps", "1/s"),
    higher("core.server.pool_scaling", "x"),
    lower("qm.ops.preload_enqueue_us", "us"),
    // -> recovery_s
    lower("storage.recovery.replayed_ops", "count"),
    higher("storage.recovery.ops_per_s", "1/s"),
    lower("storage.wal.tail_mb", "MB"),
    lower("storage.checkpoint.write_ms", "ms"),
    lower("storage.checkpoint.bytes_mb", "MB"),
    // environment-sensitive rows that move no end-to-end metric today
    lower("core.pipeline.threaded_p50_us", "us"),
    lower("qm.notify.wakeup_share", "%"),
    lower("qm.notify.handoff_us", "us"),
    lower("net.rpc.roundtrip_us", "us"),
    lower("core.remote.enqueue_roundtrip_us", "us"),
    lower("core.remote.msgs_per_req", "count"),
    lower("core.remote.empty_polls_per_req", "count"),
    lower("core.clerk.roundtrip_p99_us", "us"),
    lower("trace.overhead_pct", "%"),
];

/// How long one run measures, and what `perf` uses when `--seconds` is not
/// given.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perf\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
