#!/usr/bin/env bash
# Regenerates the perf-regression baselines in results/baselines/ from
# the current BENCH_*.json artifacts in results/. Run this after an
# *intentional* performance-characteristics change, then commit the
# regenerated specs — baseline churn should always be an explicit,
# reviewable commit, never a side effect of `scripts/check.sh`.
#
# To refresh the BENCH artifacts themselves first, run the six benches
# that write gated artifacts (each fails if a gated row is over its budget):
#   for b in hash_throughput json_throughput overhead sim_throughput \
#            training_allocs training_parallel; do
#       cargo bench --offline -p bench --bench "$b"
#   done
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q --release --offline --bin juggler -- perf-report --write-baselines
echo "review and commit results/baselines/ explicitly"
