#!/usr/bin/env bash
# Engine-scaling benchmark: writes BENCH_fig2.json (storage commit
# scaling, disjoint vs same-key), BENCH_fig3.json (KV command scaling),
# BENCH_wal.json (the same commit workload with the write-ahead log on
# vs off, free and costed fsyncs — durability overhead), BENCH_occ.json
# (the §7 cured orm::occ layer vs the hand-rolled lock + two-transaction
# AHT), BENCH_confluence.json (the PR-9 coordination-avoiding delta path
# vs both coordinated implementations of the same hot-counter increment),
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
