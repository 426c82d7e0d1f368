#!/usr/bin/env bash
# Builds and runs the farmerd benchmark. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
#
# Every build output, the Go build cache included, goes to .bench_build/ in
# the checkout, and the Go command's configuration and telemetry directory
# is pointed there too, so a run reads and writes nothing outside the
# checkout. The first run in a fresh checkout compiles the standard library
# into that cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/farmerd || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a farmer checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C bench build -trimpath -o "$out/farmerbench" .
exec "$out/farmerbench" "$@"
