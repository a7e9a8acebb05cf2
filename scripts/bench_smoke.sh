#!/usr/bin/env bash
# Throughput smoke gate. Runs the benchmark matrix best-of-N, writes the
# result JSON at the repo root, and fails if any cell's retired-steps/sec
# regressed more than the tolerance against the previous committed result
# (or an explicit baseline), which must be an oasis-bench-smoke-v2 file.
# Fully offline.
#
# Every knob is an environment variable, so CI jobs and local runs tune
# the sweep without editing this file; explicit flags still win because
# they are appended last.
#
#     BENCH_RUNS=<N>        runs per cell, best kept          [default: 3]
#     BENCH_MATRIX=<NAME>   full | quick (four cells of full) [default: full]
#     BENCH_OUT=<FILE>      result file            [default: BENCH_pr8.json]
#     BENCH_BASELINE=<FILE> baseline to gate against
#                           [default: the previous BENCH_OUT file]
#     BENCH_TOLERANCE=<PCT> allowed steps/sec regression      [default: 25]
#
#     ./scripts/bench_smoke.sh                   # full matrix, 3 runs, 25%
#     BENCH_RUNS=1 BENCH_MATRIX=quick ./scripts/bench_smoke.sh  # fast check
#     ./scripts/bench_smoke.sh --runs 5 --tolerance 10          # flags win

set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=(
    --runs "${BENCH_RUNS:-3}"
    --matrix "${BENCH_MATRIX:-full}"
    --bench-out "${BENCH_OUT:-BENCH_pr8.json}"
    --tolerance "${BENCH_TOLERANCE:-25}"
)
if [ -n "${BENCH_BASELINE:-}" ]; then
    ARGS+=(--baseline "$BENCH_BASELINE")
fi

cargo build -q --release -p oasis-cli
exec ./target/release/oasis-sim bench-smoke "${ARGS[@]}" "$@"
