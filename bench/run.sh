#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, keeping
# every file the Go toolchain writes (build cache, temporaries, binary)
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOWORK=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
