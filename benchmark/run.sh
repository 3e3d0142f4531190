#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go
# toolchain writes (build cache, temp files, the binary) stays in
# .bench_build/ inside the checkout; the benchmark itself writes only
# under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
	go build -o "$build/idg-benchmark" .
)
cd "$root"
# Freed heap is handed back lazily (MADV_FREE): on hosts where the
# first touch of a page is expensive, re-faulting scavenged pages would
# otherwise dominate the run-to-run spread of every timing.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"
exec "$build/idg-benchmark" "$@"
