#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root with the arguments given. Everything the Go
# toolchain writes (build cache, module cache, telemetry) is redirected
# into .bench_build so a run touches nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
(
	cd "$root/bench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/powercap-bench" .
)
cd "$root"
exec "$build/powercap-bench" "$@"
