#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Everything the build and the run write stays under
# .bench_build/ (build cache, binary, on-disk stores) and bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -C bench -buildvcs=false -o "$build/mdhfbench" .
exec "$build/mdhfbench" "$@"
