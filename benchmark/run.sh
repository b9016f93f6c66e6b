#!/usr/bin/env bash
# Build the benchmark (release, offline, its own workspace) and run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke] [--repeat N]
#
# Build output goes to $CARGO_TARGET_DIR if set, else to benchmark/target;
# traces go to <that dir>/benchmark/. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# The build's own output goes to stderr: stdout carries only the results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

export MICS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export MICS_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/mics-benchmark" "$@"
