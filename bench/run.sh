#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Go's build cache, module cache and temp files are pointed at
# .bench_build/ so that nothing is read or written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/secssd-perfbench" .
cd "$root"
exec "$build/secssd-perfbench" "$@"
