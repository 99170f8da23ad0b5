#!/usr/bin/env bash
# Builds craqrd and the benchmark from this checkout, then runs one
# workload:
#
#   bash craqrbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/craqrd" ]]; then
	echo "craqrbench: run from the repository root (no go.mod or cmd/craqrd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/craqrd" ./cmd/craqrd
(cd "$root/craqrbench" && go build -o "$out/bin/craqrbench" .)
exec "$out/bin/craqrbench" -craqrd "$out/bin/craqrd" -work "$out/work" "$@"
