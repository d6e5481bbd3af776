#!/bin/bash
# Builds cmd/bench and runs it with the given arguments, from the root of
# a checkout. Everything the build writes (the Go build cache, its
# temporary files, the binary) stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
