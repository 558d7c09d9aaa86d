#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload lan-kvs --seed 1 --seconds 45 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOENV=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
