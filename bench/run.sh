#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# The Go build cache lives there too, so nothing is written outside the
# checkout. Fails, building nothing, where there is no module to build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/csqbench" ./bench
exec "$out/csqbench" "$@"
