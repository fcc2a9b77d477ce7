#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload serve_heavy --seed 1 --seconds 15 --trace 0
#
# One foreground process: the build runs to completion, then exec replaces
# this shell with the benchmark binary, which owns and tears down everything
# it starts. Nothing is read or written outside the checkout — the Go build
# cache, the binary, temp WAL directories and trace dumps all live under
# .bench_build/.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$src" -o "$build/ppmbench" .
exec "$build/ppmbench" -workdir "$build" "$@"
