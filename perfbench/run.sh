#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest|query|mixed|defects|all --seed N --seconds S --trace 0|1
#
# Everything the build and the runs leave behind — the binary, the Go
# build cache and the reports — goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/results" "$@"
