#!/usr/bin/env bash
# Builds popsbench from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload suite-tight --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh compare A.json... -- B.json...
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the binary, the Go build and module caches, and
# the service's data while a run lasts. The build needs no network.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/popsbench" .)
cd "$root"
exec "$out/popsbench" "$@"
