#!/usr/bin/env bash
# Builds `repro`, `pv-serve` and the benchmark program from source, then
# runs one workload of the repository benchmark:
#
#   bash perfbench/run.sh --workload uc1_grid|shard_scale|serve_open \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the result is the last line of stdout.
# See perfbench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --manifest-path Cargo.toml \
    -p pv-bench --bin repro --bin pv-serve 1>&2
cargo build --release --offline --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
