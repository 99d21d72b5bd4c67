#!/usr/bin/env bash
# Builds agentd and the benchmark from the sources of the checkout it is
# run from, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .benchrun/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/agentd" ] || [ ! -f "$root/benchmark/go.mod" ]; then
  echo "run.sh: run from the root of a checkout holding the repro sources" >&2
  exit 2
fi
out="$root/.benchrun"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
go build -o "$out/bin/agentd" ./cmd/agentd
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" --root "$root" --bin "$out/bin" "$@"
