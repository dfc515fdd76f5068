#!/usr/bin/env bash
# Builds rbs-netd and the rbs-e2e benchmark from the checkout this script
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# checkout root). Without the repository's crates next to this directory
# the build fails and so does the script.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rbs-net --bin rbs-netd >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rbs-e2e" --netd "$CARGO_TARGET_DIR/release/rbs-netd" "$@"
