#!/usr/bin/env bash
# Engine-scaling benchmark: writes BENCH_kv.json (KV command scaling,
# disjoint vs same-key), BENCH_wal.json (storage commit scaling with the
# write-ahead log off, per-commit fsync and group commit, free and costed
# fsyncs — its `off` rows are the commit-scaling curve),
# BENCH_confluence.json (the hand-rolled lock + two-transaction AHT, the
# §7 cured orm::occ layer and the coordination-avoiding delta path,
# three implementations of the same hot-counter increment),
# BENCH_resilience.json (the metastability ablation under a
# partition storm) and BENCH_traffic.json (the open-loop traffic-SLO
# ablation: naive / breaker_only / full front door across load levels)
# into the repository root.
#
# Usage:
#   ./tools/bench.sh              # full windows (~200ms per cell)
#   BENCH_SCALE=smoke ./tools/bench.sh   # tiny duty cycle, CI smoke
#   ./tools/bench.sh out/dir      # write the JSON files elsewhere
set -euo pipefail
cd "$(dirname "$0")/.."

OUTDIR="${1:-.}"

cargo build --release -p adhoc-bench --bin paper-eval
./target/release/paper-eval bench-json "$OUTDIR"
