#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build nvbitfi-bench from
# source inside the checkout, then run it from the checkout's root with the
# arguments given. Everything the go tool writes (build cache, work
# directories, module cache, telemetry) stays under .bench_build in the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-modcacherw
go build -C "$root/bench" -o "$build/nvbitfi-bench" ./cmd/nvbitfi-bench
cd "$root"
exec "$build/nvbitfi-bench" -dir bench "$@"
