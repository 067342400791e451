#!/usr/bin/env bash
# Builds pipebench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash pipebench/run.sh --workload city_survey --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary) goes
# under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The module has no dependencies outside the repository: never download.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off GOSUMDB=off
go -C "$root/pipebench" build -o "$out/pipebench" .
exec "$out/pipebench" "$@"
