#!/usr/bin/env bash
# Builds the benchmark program from the source tree it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload social-uniform --seed 1 --seconds 30 --trace 0
#
# Every build output (binary, Go build cache, module cache, temporary
# files, Go config) stays under .bench_build at the repository root.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
PERFBENCH_COMMIT="$commit" exec "$build/perfbench" "$@"
