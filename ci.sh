#!/usr/bin/env bash
# Full local CI pipeline: formatting, lints (clippy + rrq-lint), the
# rrq-analyze static analyzer, and the tier-1 build/test cycle. Run from
# the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rrq-lint"
cargo run --release -p rrq-check --bin rrq-lint

echo "== rrq-analyze (lock-order, no-block-under-guard, durability-dominator, relaxed-ordering)"
# Whole-workspace analyzer over the LOCKS.md catalogue; findings carry the
# witnessing acquisition chain. See DESIGN.md §22.
cargo run --release -p rrq-check --bin rrq-analyze

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --release

echo "== parking_lot shim tests (spin-then-park locks, counted condvar waiters)"
# vendor/ is in the workspace `exclude`, so the workspace test run never
# reaches the shims; every lock in the workspace goes through this one.
cargo test -q --release --manifest-path vendor/parking_lot/Cargo.toml

echo "== perf package tests (smoke workloads, BENCHMARK.json == spec.rs)"
# The benchmark is a package of its own (perf/Cargo.toml has an empty
# [workspace]), so the workspace test run above never reaches it.
cargo test --release --manifest-path perf/Cargo.toml

echo "== E21 repo-partition smoke (shared-nothing scaling, 4 vs 1 partitions)"
# Asserts 4 shared-nothing repository partitions push >= 1.5x the 1-partition
# rate on the bank workload at 0% cross-partition traffic, every commit
# forcing a 100us WAL write (full sweep: experiments -- e21).
cargo run --release -p rrq-bench --bin experiments -q -- e21 --smoke

echo "== explorer smoke sweep (600 fixed-seed fault scripts)"
# Deterministic: any failure prints the seed and a replayable script path
# (replay with: cargo run --release -p rrq-bench --bin explore -- --replay <path>);
# the violations and trace land beside it as fail-seed-<n>.violations.txt.
# The node's servers run the epoch loop (one force per epoch), so this is
# also the sweep of that loop; it took over the retired planned sweep's budget.
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 600 --seed 1 --budget-secs 720 --out target/explorer-failures

echo "== explorer shared-nothing sweep (200 scripts, repo_partitions=4)"
# Same fixed seeds against four shared-nothing repository partitions: clerks
# route per queue, partition-scoped crashes and single-pair cuts land mid
# protocol, and the oracle battery must stay green across every recovery.
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 200 --seed 1 --budget-secs 240 --repo-partitions 4 \
  --out target/explorer-failures-repo4

echo "CI OK"
