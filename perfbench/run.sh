#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload traj-ghz --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, journals) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --state "$out" "$@"
