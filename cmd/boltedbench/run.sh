#!/usr/bin/env bash
# Builds boltedd and the harness from the checkout's sources into
# .bench_build/ (build cache included, so nothing is written outside the
# checkout), then runs the harness from the checkout's root with the
# arguments given. BENCHMARK.json's command is this script.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOWORK=off

(cd "$root" && go build -o "$build/boltedd" ./cmd/boltedd) >&2
(cd "$root/cmd/boltedbench" && go build -o "$build/boltedbench" .) >&2

cd "$root"
exec "$build/boltedbench" -boltedd "$build/boltedd" -out bench/out "$@"
