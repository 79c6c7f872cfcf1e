#!/usr/bin/env bash
# Builds the v6lab benchmark from source and runs it. Run from the root of
# a v6lab checkout:
#
#   bash v6bench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/. Without the v6lab sources beside it the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/v6bench" .)
exec "$out/v6bench" --out "$out" "$@"
