#!/usr/bin/env bash
# Builds and runs the adrbench benchmark. Run it from the repository root:
#
#   bash adrbench/run.sh --workload ingest-stream --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files, the binary and the traced runs' span
# files all stay under .bench_build in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f adrbench/go.mod ]]; then
	echo "adrbench: run from the repository root (go.mod and adrbench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd adrbench && go build -buildvcs=false -o "$out/adrbench" .) >&2
exec "$out/adrbench" "$@"
