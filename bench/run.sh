#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source into
# .bench_build/ (Go build cache included, so nothing outside the checkout is
# written) and runs it from the checkout root with the driver's arguments.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/polbench" .)
exec "$build/polbench" "$@"
