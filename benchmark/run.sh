#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it from the checkout root. Every cache and temporary
# file of the Go toolchain is pointed below .bench_build/, so a run reads and
# writes nothing outside the checkout (the toolchain itself excepted).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/tfhpc-benchmark" .
cd "$root"
exec "$build/tfhpc-benchmark" "$@"
