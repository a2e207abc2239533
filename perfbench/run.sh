#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload secure-infer --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, toolchain state, the
# binary, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (the module sources are missing)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
