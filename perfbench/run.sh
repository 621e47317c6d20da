#!/usr/bin/env bash
# Builds the benchmark and rampserve from this checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload figure3-cold --seed 1 --seconds 20 --trace 0
#
# Every build output and cache stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$out/bin/rampserve" ./cmd/rampserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -rampserve "$out/bin/rampserve" "$@"
