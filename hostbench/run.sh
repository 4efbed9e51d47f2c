#!/usr/bin/env bash
# Builds the host-cost benchmark from this checkout's sources and runs it:
#
#   bash hostbench/run.sh --workload fig8-churn --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build cache
# and the traced run's span file stay under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd hostbench && go build -o "$out/hostbench" .)
exec "$out/hostbench" -out "$out" "$@"
