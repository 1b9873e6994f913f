#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (offline, into
# $CARGO_TARGET_DIR or benchmark/target) and runs it from the root of the
# checkout, so every path it writes is under benchmark/out.
#
#   benchmark/run.sh [--seed N] [--smoke] [--out FILE]
#       every workload: 5 untraced repetitions and one traced, a table of
#       every metric with its unit, and a JSON report
#   benchmark/run.sh --compare A.json B.json
#       two reports of one seed against the bounds, one row per workload × metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
exec cargo run --quiet --release --offline \
    --manifest-path benchmark/Cargo.toml -- "$@"
