#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through (see perfbench/README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the span files all stay under
# .bench_build in the current directory; nothing is fetched.
set -euo pipefail
src=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
