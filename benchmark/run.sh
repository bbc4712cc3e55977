#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ — build cache,
# module cache, work directory and the go command's own config directory
# (its telemetry counters) included, so nothing is written outside the
# checkout — and runs it from the checkout's root with the arguments
# given.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/pequod-benchmark" .)
exec "$build/pequod-benchmark" "$@"
