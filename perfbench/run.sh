#!/usr/bin/env bash
# Builds karma-serve and the benchmark harness from this checkout, then
# runs one benchmark run:
#
#   bash perfbench/run.sh --workload eval-cold --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and report stays under .bench_build/ in
# the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
cd "$root"
go build -o "$out/bin/karma-serve" ./cmd/karma-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve "$out/bin/karma-serve" -out "$out/reports" "$@"
