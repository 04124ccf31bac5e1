#!/usr/bin/env bash
# run.sh — build the benchmark from source inside the checkout and run
# it. Everything the toolchain writes (build cache, binaries, daemon
# state) stays under <checkout>/.bench_build.
#
#   bench/run.sh -seed 1
#   bench/run.sh --workload spark_ils1 --seed 1 --seconds 25 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME is where the go command keeps its telemetry counters.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config"

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
