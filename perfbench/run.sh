#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload ingest-encode --seed 1 --seconds 14 --trace 0
#
# Run from the root of a checkout. Everything the build writes (the Go
# build cache, the binary, the traced run's spans) stays under
# .bench_build/ in that checkout. Outside a checkout of the repository
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin.tmp.$$" .)
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" --spans-dir "$build/spans" "$@"
