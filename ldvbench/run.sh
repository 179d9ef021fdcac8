#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
#   bash ldvbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. The build goes to _build/ (dune's
# default); its output goes to stderr so the last line of stdout stays
# the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f ldvbench/dune ]; then
  echo "ldvbench: run from the root of an ldv checkout (dune-project, lib/)" >&2
  exit 2
fi

# the build stays inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet ./ldvbench/main.exe 1>&2
exec ./_build/default/ldvbench/main.exe "$@"
