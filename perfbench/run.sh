#!/usr/bin/env bash
# Builds the benchmark and mse-serve from the checkout it is run in, then
# runs the benchmark with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binaries and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/mse-serve ]; then
	echo "perfbench: run from the root of a checkout of the module" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOTELEMETRY=off
go build -o "$out/bin/mse-serve" ./cmd/mse-serve
go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" -serve-bin "$out/bin/mse-serve" -out "$out" "$@"
