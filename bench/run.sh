#!/usr/bin/env bash
# Builds sapbench from the source in this checkout and runs it with the given
# arguments, from the checkout's root:
#
#   bash bench/run.sh --workload classify-single --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build and module caches, temporary
# files, Go's own settings) stays under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$out/sapbench" .)
exec "$out/sapbench" "$@"
