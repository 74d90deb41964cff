#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and runs
# it with the arguments given. BENCHMARK.json names this script as the
# benchmark's command; `go run -C benchmark . <args>` does the same from a
# developer's shell with the default build cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/jobench-benchmark" .
cd "$root"
exec "$build/jobench-benchmark" "$@"
