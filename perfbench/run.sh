#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload mlp-flat8 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go caches, the binary, trace files) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
[ -f "$root/perfbench/go.mod" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
[ -f "$root/go.mod" ] || { echo "run.sh: no go.mod at $root: the program's sources are missing" >&2; exit 2; }
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
