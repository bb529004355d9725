#!/usr/bin/env bash
# Builds the harness from source and runs it with the given flags. Everything
# the build and the run write — Go's build cache included — stays inside the
# checkout: .bench_build/ next to bench/ and bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/ldpjoin-bench" .
exec "$build/ldpjoin-bench" "$@"
