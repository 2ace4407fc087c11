#!/usr/bin/env bash
# Builds the benchmark driver and its rank binary from source, then runs the
# driver with the given arguments. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload couple_bulk --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache included — stays under
# .bench_build/ in the checkout.
set -euo pipefail
src="$(cd "$(dirname "$0")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$src" && go build -o "$build/bin/" . ./rank)
exec "$build/bin/benchmark" "$@"
