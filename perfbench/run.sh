#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through; run from the root of a checkout of the repository:
#   bash perfbench/run.sh --workload latency-parity --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
