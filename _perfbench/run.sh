#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash _perfbench/run.sh --workload null-flood --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every Go cache, temporary file and
# the binary stay under .bench_build/ in that root, so the build reads
# and writes nothing outside the checkout. A checkout without the
# repository's sources fails the build, and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off CGO_ENABLED=0

if ! (cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed; run from the repository root" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
