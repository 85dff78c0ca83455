#!/usr/bin/env bash
# Full local CI pipeline: formatting, lints (clippy + rrq-lint, whose pass
# includes the static analyzer), and the tier-1 build/test cycle. Run from
# the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rrq-lint (six line rules + lock-order, no-block-under-guard, durability-dominator, relaxed-ordering)"
# One walk of crates/*/src: the line rules, then the whole-workspace analyzer
# over the LOCKS.md catalogue; analyzer findings carry the witnessing
# acquisition chain. See DESIGN.md §22.
cargo run --release -p rrq-check --bin rrq-lint

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --release

echo "== cargo test, debug build (storage + queue manager)"
# The tier-1 command as ROADMAP.md writes it is a debug build; the release
# run above compiles `debug_assert!` out (record kinds, eid counters) and
# turns overflow checks off. These two crates own the log format and the
# key layout, where those assertions live.
cargo test -q -p rrq-storage -p rrq-qm

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
# so this is also the sweep of that loop.
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 800 --seed 1 --budget-secs 960 --out target/explorer-failures

echo "CI OK"
