#!/usr/bin/env bash
# Builds hardbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload certify-mds --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache and temporary files, the binaries, span files) stays under
# .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$out/hardbench" ./hardbench
exec "$out/hardbench" -workdir "$out" "$@"
