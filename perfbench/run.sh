#!/usr/bin/env bash
# Builds `smerge` and the benchmark program, then runs the benchmark.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to standard error, so the last line of standard
# output is the run's JSON result. Cargo builds into $CARGO_TARGET_DIR
# (default: .bench_build, apart from the repository's own target).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p schema-merge-cli --bin smerge >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --smerge "$CARGO_TARGET_DIR/release/smerge" "$@"
