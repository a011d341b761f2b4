#!/usr/bin/env bash
# Runs the benchmark RUNS times per workload, each run on another seed,
# keeps each run's result line in OUT/<workload>.jsonl, and prints the
# spread report: per metric and workload, the median and quartiles across
# runs, with end-to-end metrics whose interquartile range exceeds their
# bound marked unstable. Run it from the repository root:
#
#   bash bench/spread.sh OUT [RUNS] [FIRST_SEED] [TRACE]
set -euo pipefail

out=${1:?usage: bench/spread.sh OUT [RUNS] [FIRST_SEED] [TRACE]}
runs=${2:-10}
first=${3:-1}
trace=${4:-0}
mkdir -p "$out"
for w in heavy light-writes light-pool planfuzz-power; do
	: >"$out/$w.jsonl"
	for ((s = first; s < first + runs; s++)); do
		bash bench/run.sh --workload "$w" --seed "$s" --seconds 20 --trace "$trace" | tail -n 1 >>"$out/$w.jsonl"
	done
done
.bench_build/go/bench -spread "$out"
