#!/usr/bin/env bash
# Builds bitfusion-cli and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin bitfusion-cli >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --cli "$CARGO_TARGET_DIR/release/bitfusion-cli" "$@"
