#!/bin/sh
# Run every workload, untraced then traced, from the root of a checkout:
#   sh perfbench/run_all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-18}
for workload in optimize_dp truth_large eval_sweep lint_self; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace"
  done
done
