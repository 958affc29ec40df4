#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload train_shuffle --seed 1 --seconds 24 --trace 0
#
# The binary and Go's build cache go to .bench_build/ at the root of the
# checkout, so nothing is written outside it; after the first build a run
# spends under a second here. The program runs from benchmark/, so the paths
# given to -out and -compare, and the out/ directory of the Chrome traces,
# are relative to it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
