#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of the checkout: bash bench/run.sh --workload edit-1k ...
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$build/nmslbench" .
exec "$build/nmslbench" "$@"
