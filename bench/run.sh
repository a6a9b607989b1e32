#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build pulsebench from the
# checkout this script sits in, into the checkout's own .bench_build (Go
# build cache included, so nothing is written outside the checkout), and run
# it with the arguments given.
#
#   bash bench/run.sh --workload hot12 --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
(cd "$root/bench" && go build -o "$root/.bench_build/pulsebench" ./pulsebench)
exec "$root/.bench_build/pulsebench" -root "$root" "$@"
