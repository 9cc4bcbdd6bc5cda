#!/usr/bin/env bash
# Builds the benchmark and the repository's biocheckd from source, then
# runs one workload. Run from the repository root:
#   bash perfbench/run.sh --workload smc_sweep --seed 1 --seconds 20 --trace 0
# Cargo's output goes to stderr; the result object is the last line of
# stdout. Honors CARGO_TARGET_DIR (default: perfbench/target).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins 1>&2
exec "$target/release/perfbench" "$@"
