#!/usr/bin/env bash
# Builds prbench from source and runs it with the caller's flags. Build
# outputs, the Go caches and trace files all go under .bench_build/ in the
# directory the script is started from (the root of the checkout), so a run
# reads and writes nothing outside it.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
# The go command's work directories and its telemetry counters, too.
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
PRBENCH_COMMIT=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
export PRBENCH_COMMIT
(cd "$here" && go build -o "$build/prbench" ./prbench)
exec "$build/prbench" -out "$build/out" "$@"
