#!/bin/bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything the build writes — the Go build cache,
# the binary — stays under .bench_build/ in the checkout, and so do the
# data directories of a run.
#
#   bash bench/run.sh --workload ingest-fresh --seed 1 --seconds 10 --trace 0
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
