#!/usr/bin/env bash
# Builds qualityserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload query-head --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep the toolchain's cache, temporary files, module cache and telemetry
# inside the checkout; no network, no toolchain download.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
# With telemetry on, every go command starts a detached upload process
# that outlives this script; "go telemetry off" itself starts none.
go telemetry off
go build -o "$out/qualityserve" ./cmd/qualityserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/qualityserve" -workdir "$out" "$@"
