#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays under .bench_build/ in the current directory (the root of
# the checkout): the Go build cache, module and telemetry state, the binary,
# temporary inputs, traces.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= go build -C "$here" -o "$out/entbench" . >&2
TMPDIR="$out/tmp" exec "$out/entbench" "$@"
