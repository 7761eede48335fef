#!/usr/bin/env bash
# Builds the benchmark and the ddsimd service from this checkout's
# sources, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload structured --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, caches or
# writes stays under .bench_build/ in the current directory, and the Go
# toolchain is kept offline.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/bench" .
go -C "$root/perfbench" build -o "$out/ddsimd" ddsim/cmd/ddsimd
exec "$out/bench" --ddsimd "$out/ddsimd" --workdir "$out/tmp" "$@"
