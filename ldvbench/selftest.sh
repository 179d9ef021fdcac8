#!/usr/bin/env bash
# The benchmark's own tests, run from the root of a checkout:
#
#   bash ldvbench/selftest.sh
#
# 1. The manifest (BENCHMARK.json) is well-formed (check_manifest.py).
# 2. Exact-count determinism: two runs of every workload with the same
#    seed, at the reduced --counts size, print identical package sizes,
#    trace edges, lineage and slice tuples, fsyncs per statement under
#    group commit and the share of reads a replica answered.
# 3. A second seed completes every workload with no failed operation.
set -euo pipefail

python3 ldvbench/check_manifest.py BENCHMARK.json
DUNE_CACHE=disabled dune build --root . --display quiet ./ldvbench/main.exe

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for w in $workloads; do
  a=$(./_build/default/ldvbench/main.exe --workload "$w" --seed 11 --counts | tail -n 1)
  b=$(./_build/default/ldvbench/main.exe --workload "$w" --seed 11 --counts | tail -n 1)
  if [ "$a" = "$b" ]; then
    echo "ok   $w: same seed, same counts: $a"
  else
    echo "FAIL $w: same seed, different counts:"
    echo "     $a"
    echo "     $b"
    status=1
  fi
  if c=$(./_build/default/ldvbench/main.exe --workload "$w" --seed 12 --counts | tail -n 1) &&
     [[ "$c" == '{"failed": 0,'* ]]; then
    echo "ok   $w: second seed completes with no failure"
  else
    echo "FAIL $w: second seed: $c"
    status=1
  fi
done
exit $status
