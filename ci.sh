#!/usr/bin/env bash
# Offline correctness gate for the MST reproduction.
#
# Runs everything a reviewer needs before merging, with no network access:
#   1. formatting drift
#   2. the static-analysis framework's own test suite (lexer, rule
#      fixtures, seeded fixture trees — `cargo test -p xtask`)
#   3. the zero-dependency static-analysis pass (crates/xtask); the
#      machine-readable report is archived to results/xtask_report.json
#   4. a release build of the whole workspace, then of the repository
#      benchmark (e2ebench, its own workspace that builds against the
#      library crates by path), so an API change that breaks the
#      benchmark fails here
#   5. the full test suite
#   6. the index tests again with `paranoid` audits after every mutation
#   7. the observability smoke benchmark (regenerates BENCH_kmst.json and
#      fails if any metrics counter stays zero across the workload)
#   8. the batch-execution smoke benchmark (2 workers x 2 shards;
#      regenerates BENCH_throughput.json and fails on executor
#      nondeterminism, dead cross-shard pruning, or spurious degradation)
#   9. the chaos smoke test in release mode (seeded fault injection:
#      quiet schedule must be bit-identical, noisy schedule must stay
#      honest — no panics, balanced ledgers, named shard failures)
#  10. the server smoke test in release mode (real TCP loopback: a k-MST
#      answer, a malformed frame answered with a typed error, honest
#      stats counters, and a graceful drain on an ephemeral port)
#  11. the serving smoke benchmark (concurrent pipelined loopback
#      clients; regenerates BENCH_serve.json and fails on pass-to-pass
#      nondeterminism, counter drift, dead admission control, a cold
#      answer cache, or steady throughput below 520 qps)
#  12. the durability smoke benchmark (real files + fsync; insert bursts
#      then replace bursts that delete seed objects, so recovery replays
#      deletes too; regenerates BENCH_wal.json and fails on a group-commit
#      breakdown, an inexact replay, lost, mangled or revived objects after
#      recovery, a checkpoint that fails to truncate the replay work, or
#      deletes reading more than 10% of a shard's index pages per deleted
#      segment — a node-read count, not a timing)
#  13. the replication smoke benchmark (a live primary/replica pair over
#      loopback TCP; regenerates BENCH_repl.json and fails on a p99
#      replication lag over the gate, a catch-up that does not converge
#      bit-identically, a missed failover, or a write accepted with no
#      primary), followed by an offline --verify-store sweep of a
#      freshly written durable store
#
# Each gate prints its wall time so slow gates are easy to spot.
set -euo pipefail
cd "$(dirname "$0")"

# gate <label> <cmd...>: run one gate, timing it. A failing gate aborts
# the script (set -e) after the failure propagates out of the function.
gate() {
    local label="$1"
    shift
    echo "==> $label"
    local t0=$SECONDS
    "$@"
    echo "    [$label: $((SECONDS - t0))s]"
}

gate "cargo fmt --check" cargo fmt --check

gate "static analysis self-tests (cargo test -p xtask)" \
    cargo test -q -p xtask

# The check gate doubles as the report archiver: --json writes the
# deterministic violation report to stdout (empty array when clean)
# while human-readable diagnostics still go to stderr on failure.
xtask_check() {
    mkdir -p results
    cargo run --release -q -p xtask -- check --json >results/xtask_report.json
}
gate "static analysis (xtask check, report -> results/xtask_report.json)" \
    xtask_check

gate "cargo build --release --workspace" cargo build --release --workspace

gate "repository benchmark build (e2ebench)" \
    cargo build --release --offline --manifest-path e2ebench/Cargo.toml

gate "cargo test --workspace" cargo test -q --workspace

gate "cargo test -p mst-index --features paranoid" \
    cargo test -q -p mst-index --features paranoid

gate "observability smoke bench (BENCH_kmst.json)" \
    cargo run --release -q -p mst-bench --bin kmst_profile -- --smoke

gate "index shootout smoke (R-tree / STR-tree / TB-tree agree with the scan)" \
    cargo run --release -q -p mst-bench --bin index_comparison -- \
    --objects 16 --samples 200 --queries 6 --k 2 --seed 11

gate "batch executor smoke bench (BENCH_throughput.json)" \
    cargo run --release -q -p mst-bench --bin throughput -- --smoke

gate "chaos smoke (seeded fault injection)" \
    cargo test -q --release --test chaos chaos_smoke

gate "server smoke (TCP loopback, malformed frame, stats, drain)" \
    cargo test -q --release -p mst-serve --test loopback server_smoke

gate "serving smoke bench (BENCH_serve.json, >= 520 qps steady)" \
    cargo run --release -q -p mst-bench --bin serve -- --smoke --min-qps 520

gate "durability smoke bench (BENCH_wal.json, fsynced group commit, delete reads + recovery)" \
    cargo run --release -q -p mst-bench --bin wal -- --smoke

gate "replication smoke bench (BENCH_repl.json, max-lag + failover gates)" \
    cargo run --release -q -p mst-bench --bin repl -- --smoke

# Seed a durable store (the server checkpoints the seed before it prints
# its port), stop the process, and sweep the store offline: the
# --verify-store path must report it clean and exit 0.
verify_store_smoke() {
    local dir store pid
    dir=$(mktemp -d)
    store="$dir/store"
    cargo run --release -q -p mst-serve -- \
        --store "$store" --objects 24 --shards 2 --port 0 \
        >"$dir/out.log" 2>"$dir/err.log" &
    pid=$!
    for _ in $(seq 1 150); do
        grep -q "listening on" "$dir/out.log" 2>/dev/null && break
        sleep 0.2
    done
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    cargo run --release -q -p mst-serve -- --verify-store "$store"
    rm -rf "$dir"
}
gate "offline store verification (mst-serve --verify-store)" \
    verify_store_smoke

echo "ci.sh: all gates passed"
