#!/usr/bin/env bash
# Entry point for the benchmark driver: builds the benchmark from the
# checkout this script sits in and runs it with the driver's arguments
# (--workload, --seed, --seconds, --trace). Everything built or written
# stays inside the checkout, under .bench_build/: the Go build cache, the
# compiler's temporary files and the toolchain's own per-user files too.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -o "$build/benchmark" .
exec "$build/benchmark" -work "$build/work" "$@"
