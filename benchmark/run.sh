#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash benchmark/run.sh [flags]. Everything the build writes
# (binary, Go build cache, temporaries) stays under .bench_build/ in the
# current directory; nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/ncs-benchmark" .
exec "$build/ncs-benchmark" "$@"
