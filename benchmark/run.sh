#!/usr/bin/env bash
# Builds the benchmark and runs every workload, untraced then traced.
#
#   SEED=7 SECONDS_PER_RUN=10 benchmark/run.sh
#
# Leaves under benchmark/out/:
#   result.json          one line per workload: end-to-end metrics (input of `compare`)
#   layers.json          one line per workload: per-layer metrics
#   trace.<workload>.json  the spans of the traced run
# Exits non-zero when any correctness check failed.
set -uo pipefail
cd "$(dirname "$0")/.."

seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-10}"
workloads=(fault_commit fault_commit_spill branch_trace compute_control log_decode graph_query)
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

cargo build --release --offline --manifest-path benchmark/Cargo.toml || exit 2

status=0
for trace in 0 1; do
    for workload in "${workloads[@]}"; do
        # The last line is the machine-readable result; the file under
        # benchmark/out/ holds the same numbers and more.
        "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            | sed '$d' || status=1
    done
done

for stem in result layers; do
    for workload in "${workloads[@]}"; do
        cat "benchmark/out/$stem.$workload.json"
    done > "benchmark/out/$stem.json"
done
echo "wrote benchmark/out/result.json, benchmark/out/layers.json and benchmark/out/trace.*.json"
exit "$status"
