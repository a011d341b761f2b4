#!/usr/bin/env bash
# Builds the benchmark and the minijvm child binary from source into
# .bench_build/ (the Go build cache too, so nothing is written outside the
# checkout), then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh --workload heavy --seed 1 --seconds 20 --trace 0
#
# A prebuilt minijvm can be supplied with MINIJVM=/path/to/minijvm.
set -euo pipefail

out="$PWD/.bench_build/go"
mkdir -p "$out/tmp"
export GOCACHE="$out/cache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/bench" .
if [ -z "${MINIJVM:-}" ]; then
	go -C bench build -o "$out/minijvm" repro/cmd/minijvm
	export MINIJVM="$out/minijvm"
fi
exec "$out/bench" -state "$PWD/.bench_build/state" "$@"
