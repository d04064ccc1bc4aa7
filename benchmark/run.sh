#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays inside the checkout: the
# Go build cache, the binary, and the journals all live under
# .bench_build/ at the repository root (listed in .gitignore).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work"
# Point everything the go command might write (build cache, scratch,
# module cache, its per-user configuration and counters) into $build,
# and forbid it the network: the module needs nothing but the standard
# library and the repository around it.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/esr-benchmark" .)
exec "$build/esr-benchmark" -workdir "$build/work" "$@"
