#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload rbtree-tcache-4c --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, binary and traced-run output all stay
# under .bench_build/ in the current directory. The first run fills the
# cache (about a minute); later runs rebuild only what changed.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$build/pmembench" ./bench
exec "$build/pmembench" -o "$build/out" "$@"
