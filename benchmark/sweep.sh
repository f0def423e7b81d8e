#!/usr/bin/env bash
# One set of runs: every workload on every given seed (default 1..10),
# each appended as one record line to OUT — the input of
# `benchmark/run.sh compare A B`. Two sets of one commit must agree.
#
#   benchmark/sweep.sh A.jsonl            # seeds 1..10
#   benchmark/sweep.sh B.jsonl 21 22 23
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:?usage: sweep.sh OUT.jsonl [seed...]}"
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for seed in "${seeds[@]}"; do
  for workload in narrow wide; do
    "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace 0 --record "$out" >/dev/null
  done
done
