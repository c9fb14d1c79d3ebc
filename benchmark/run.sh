#!/usr/bin/env bash
# Build the benchmark, then run it. With --workload NAME --seed N
# --seconds N --trace 0|1 it makes one run and prints the result object
# as its last line; without --workload it runs the whole suite and writes
# results.json and trace.jsonl under --out (default benchmark/out).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/adhoc-benchmark" "$@"
