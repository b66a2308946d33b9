#!/bin/bash
# The benchmark's command (see BENCHMARK.json): builds the benchmark from
# the checkout it is run in and runs it with the arguments given. All
# that building and running leave behind goes to .bench_build/ in the
# checkout: the go build cache, go's temporary files, the binary and
# the span files of traced runs.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/plwgbench" .
cd "$root"
exec "$out/plwgbench" "$@"
