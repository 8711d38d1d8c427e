#!/usr/bin/env bash
# Run all four workloads (RUNS seeds each, untraced, then one traced run
# each), and compare against the previous result set if there is one.
#
#   bench/run.sh            # 5 seeds per workload
#   RUNS=10 bench/run.sh    # what the acceptance rule uses
#
# Result sets live in bench/out/: results.jsonl (this run) and
# results.prev.jsonl (the run before it). Window length and sizes are fixed
# here and in the binary; there is nothing to tune.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-5}"
SECONDS_PER_RUN="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
OUT=bench/out
DSBENCH=(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml --)

mkdir -p "$OUT"
if [ -s "$OUT/results.jsonl" ]; then
    mv "$OUT/results.jsonl" "$OUT/results.prev.jsonl"
fi

for workload in scroll-edit recalc sql-analytics dml-durable; do
    for seed in $(seq 1 "$RUNS"); do
        "${DSBENCH[@]}" run --workload "$workload" --seed "$seed" \
            --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 12
    done
    "${DSBENCH[@]}" run --workload "$workload" --seed 1 \
        --seconds "$SECONDS_PER_RUN" --trace 1 >"$OUT/traced-$workload.txt"
    echo "traced run of $workload: $OUT/traced-$workload.txt, spans in $OUT/trace-$workload.jsonl"
done

if [ -s "$OUT/results.prev.jsonl" ]; then
    "${DSBENCH[@]}" compare "$OUT/results.prev.jsonl" "$OUT/results.jsonl"
else
    echo "no previous result set to compare against; run again to compare"
fi
