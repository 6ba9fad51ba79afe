#!/usr/bin/env bash
# Benchmark correctness gates: each workload runs traced for 3 s at seed 1.
# perfbench/run.py exits 0 even when tori fail their gate, so this reads
# its verdict: the last stdout line is the result object, which must hold
# "correct": true (a traced run also checks that traced and untraced
# certificates agree).  Exits 1 if any workload fails.
#
# Usage: tools/bench_gates.sh   (from the repository root)
set -uo pipefail

status=0
for workload in pendulum_family coupled_2dof rough_cascade_cli; do
  out=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 1)
  echo "$out"
  if ! echo "$out" | tail -n 1 | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin).get("correct") is True else 1)'; then
    echo "::error::$workload: result line is not \"correct\": true"
    status=1
  fi
done
exit $status
