#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — the binary, the Go build cache, temporary
# files — stays under .bench_build/ in the current directory. The first
# build in a fresh checkout compiles the standard library and takes a few
# minutes; later runs reuse the cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/ssos-bench" .)
exec "$out/ssos-bench" "$@"
