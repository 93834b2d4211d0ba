#!/bin/sh
# run.sh [flags] — build the harness from source and run it. This is the
# command BENCHMARK.json names: the driver runs it from the root of a
# bare checkout, so everything the go command writes (binary, build
# cache, module cache, its telemetry counters) is pointed under
# .bench_build/ there, and the program itself writes only under
# bench/out/.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/scentbench" .)
cd "$root"
exec "$build/scentbench" "$@"
