#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload trace-k8 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, spans,
# CPU profiles and scratch caches all stay under .bench_build there.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f perfbench/main.go ]; then
	echo "perfbench: run from the repository root: go.mod or perfbench/main.go is missing" >&2
	exit 2
fi
mkdir -p .bench_build/perfbench .bench_build/go-tmp
out="$(pwd)/.bench_build"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/perfbench/perfbench" ./perfbench >&2
exec "$out/perfbench/perfbench" "$@"
