#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the harness into the checkout's
# .bench_build/ (Go build cache included, so nothing is written outside
# the checkout) and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/harness" .
exec "$build/harness" -root "$root" "$@"
