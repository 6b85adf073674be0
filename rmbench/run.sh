#!/bin/sh
# Builds rmbench from the checkout's sources and runs it with the given
# arguments. Everything the build and the run leave behind goes under
# .bench_build/ at the root of the checkout, which .gitignore names.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/rmbench" && go build -o "$out/rmbench" .)
cd "$root"
exec "$out/rmbench" "$@"
