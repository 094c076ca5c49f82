#!/usr/bin/env bash
# Builds the pftk benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#	bash pftkbench/run.sh --workload predict-zipf --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temp files) stays under
# .bench_build/ at the root. Build output goes to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$GOTMPDIR"
(cd pftkbench && go build -o "$build/pftkbench" .) >&2
exec "$build/pftkbench" "$@"
