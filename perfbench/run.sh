#!/usr/bin/env bash
# Builds the soferr server (./cmd/soferr) and the load generator
# (./perfbench) from the tree this script sits in, then runs the
# benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload hot-queries --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (binaries, Go
# build cache, temporary files) stays under .bench_build/ there, and no
# module is downloaded.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/soferr" ]]; then
	echo "perfbench: $root holds no soferr source tree (go.mod, cmd/soferr); run this from the repository root" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: otherwise the go command forks a sidecar process that
# outlives it, and this script must leave no process behind.
printf 'off\n' >"$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

go build -o "$build/soferr" ./cmd/soferr
(cd perfbench && go build -o "$build/perfbench" .)

exec "$build/perfbench" -soferr "$build/soferr" "$@"
