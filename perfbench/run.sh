#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run it from
# the root of the repository, for example:
#
#   bash perfbench/run.sh --workload apache --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the results all go
# to .bench_build/ in the checkout; no toolchain or module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
