#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload rx-stream-fxp --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, recorded trace, span JSON) lands in
# .bench_build/ under the root; nothing is fetched, so a tree without the
# saiyan module next to perfbench/ fails to build and exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
