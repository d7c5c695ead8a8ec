#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. Arguments pass through:
#
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --selfcheck           both sets twice, compared to the bounds
#   benchmark/run.sh --workload mw_r8 --seed 2014 --seconds 20 --trace 0
#                                          one run, one JSON result line
#
# Honours CARGO_TARGET_DIR; builds into benchmark/target otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bonsai-benchmark" "$@"
