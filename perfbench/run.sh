#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a checkout of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . perfbench/bench.exe perfbench/daemon.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
