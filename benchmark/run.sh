#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to
# renaming_bench unchanged. Run from the repository root, e.g.
#   bash benchmark/run.sh --workload sim-nofault-1024 --seed 1 --seconds 25 --trace 0
# Build output goes to stderr, so the result line stays the last line on
# stdout. The dune cache is off so that nothing is written outside the
# checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/renaming_bench.exe 1>&2
exec ./_build/default/benchmark/renaming_bench.exe "$@"
