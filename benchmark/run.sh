#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given flags. Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload fleet-1k --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (Go's build cache, its temporary files and
# the binary) stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd benchmark && go build -o "$out/mudibench" .)
exec "$out/mudibench" "$@"
