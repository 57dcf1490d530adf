#!/usr/bin/env bash
# The benchmark's one command: builds the shard worker (from the
# repository's workspace, unchanged) and this package, then hands every
# argument to the benchmark program. See README.md beside this file.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --workload NAME      one workload
#   benchmark/run.sh --aa                 two complete sets, compared
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#                                         one run, one JSON result line
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target}"
# Build chatter goes to stderr: a run's last stdout line is its result.
cargo build --release --offline -p wot-shardd --target-dir "$target" >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "$target/benchmark" >&2

# One malloc arena for the benchmark and the workers it spawns. With
# glibc's per-thread arenas the flat daemon's peak RSS at laptop scale
# lands anywhere from 85 to 118 MB on identical runs (which arena a freed
# snapshot goes back to is a race); with one it is 72-74 MB, and no time
# or throughput metric moves.
export MALLOC_ARENA_MAX=1

exec "$target/benchmark/release/wot-benchmark" \
    --shardd-bin "$target/release/wot-shardd" \
    --scratch "$target/benchmark" \
    "$@"
