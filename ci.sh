#!/usr/bin/env bash
# Full local CI pipeline: formatting, lints (clippy + rrq-lint, whose pass
# includes the static analyzer), and the tier-1 build/test cycle. Run from
# the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== non-test source lines under crates/*/src (informational, ROADMAP (v))"
# Each file counted to its first line-anchored `#[cfg(test)]`; a module doc
# that names the attribute mid-line does not end its file's count.
for f in $(find crates/*/src -name '*.rs' | sort); do
  awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit} 1' "$f"
done | wc -l

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rrq-lint (seven line rules + lock-order, no-block-under-guard, durability-dominator, relaxed-ordering)"
# One walk of crates/*/src: the line rules, then the whole-workspace analyzer
# over the LOCKS.md catalogue; analyzer findings carry the witnessing
# acquisition chain. See DESIGN.md §22.
cargo run --release -p rrq-check --bin rrq-lint

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --release

echo "== notifier unit tests, 100 runs (release)"
# The counted-wakeup contract (a signal of n lets at most n blocked
# dequeuers leave) is a race between threads, so one passing run shows
# little: a spurious wake once let three waiters leave on a signal of two
# in about one run in a hundred. See crates/qm/src/notify.rs.
for i in $(seq 100); do
  out=$(cargo test -q --release -p rrq-qm --lib notify:: 2>&1) || {
    echo "$out"
    echo "notify:: tests failed on run $i of 100"
    exit 1
  }
done

echo "== cargo test, debug build (storage + queue manager + core + lock table)"
# The tier-1 command as ROADMAP.md writes it is a debug build; the release
# run above compiles `debug_assert!` out (record kinds, eid counters, every
# encoder's exact `encoded_len`) and turns overflow checks off. These crates
# own the byte formats: the log format and the key layout (storage, queue
# manager) and the clerk↔QM call codec (core); the lock table's lock-order
# tokens (txn) exist only in a debug build.
cargo test -q -p rrq-storage -p rrq-qm -p rrq-core -p rrq-txn

echo "== allocation budget, debug build (release ran it above)"
# Allocator calls and body-sized allocations per send → run_once → receive
# round trip, counted per thread by the test binary's own global allocator.
cargo test -q -p rrq-tests --test alloc_budget

echo "== examples (each asserts its own outcome)"
# `cargo test` compiles examples/ but runs none of them.
for ex in quickstart fault_drill funds_transfer interactive_booking batch_orders; do
  cargo run -q --release --example "$ex" > /dev/null
done

echo "== parking_lot shim tests (spin-then-park locks, counted condvar waiters)"
# vendor/ is in the workspace `exclude`, so the workspace test run never
# reaches the shims; every lock in the workspace goes through this one.
cargo test -q --release --manifest-path vendor/parking_lot/Cargo.toml

echo "== perf package tests (smoke workloads, BENCHMARK.json == spec.rs)"
# The benchmark is a package of its own (perf/Cargo.toml has an empty
# [workspace]), so the workspace test run above never reaches it.
cargo test --release --manifest-path perf/Cargo.toml

echo "== explorer sweep (800 fixed-seed fault scripts; every fourth on 4 repo partitions)"
# Deterministic: any failure prints the seed, the partition count it ran on
# and a replayable script path (replay with: cargo run --release -p rrq-bench
# --bin explore -- --replay <path> --repo-partitions <n>); the violations and
# trace land beside it as fail-seed-<n>.violations.txt. 600 scripts run
# against one repository and 200 against four shared-nothing partitions
# (clerks route per queue, partition-scoped crashes and single-pair cuts land
# mid protocol). The node's servers run the epoch loop (one force per epoch),
# so this is also the sweep of that loop. The digest is pinned: a change that
# moves any script's trace, or a budget that stops the sweep short, fails here.
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 800 --seed 1 --budget-secs 960 --out target/explorer-failures \
  --expect-digest 64d66893abe8f098

echo "CI OK"
