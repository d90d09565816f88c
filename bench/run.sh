#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the "command" of
# BENCHMARK.json. Run from the root of a checkout. The Go build cache and the
# binary live in .bench_build/ inside the checkout, so nothing is read from or
# written to the user's home; a second run finds the build cached.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a checkout of the module (go.mod and bench/ expected here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/coyote-bench" ./bench
exec "$out/coyote-bench" "$@"
