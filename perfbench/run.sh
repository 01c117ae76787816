#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/
# (or $CARGO_TARGET_DIR when set) inside the working directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/go-cache"

export GOCACHE=$build/go-cache
export GOMODCACHE=$build/go-mod
export GOPATH=$build/go-path
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
