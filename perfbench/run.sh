#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments (see main.go for the flags). Run from the repository root:
#
#	bash perfbench/run.sh --workload faultcamp --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/xdg"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/xdg XDG_CACHE_HOME=$build/xdg \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
