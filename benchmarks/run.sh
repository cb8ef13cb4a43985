#!/usr/bin/env bash
# Builds the benchmark program from source inside the checkout and runs
# it from the checkout's root; every argument passes through. The build
# cache, temporary files and the binary all live under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/benchmarks" .) >&2
cd "$root"
exec "$build/benchmarks" "$@"
