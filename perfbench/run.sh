#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload train-inmem --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, spill directories, span dumps) stays under .bench_build/.
set -u
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config" || exit 1
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
if ! (cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .); then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
