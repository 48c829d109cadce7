#!/usr/bin/env bash
# Build the benchmark binary and run it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The benchmark builds the shipped binaries
# itself; all cargo output goes to stderr, so the last line of stdout is
# the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/e2ebench" "$@"
