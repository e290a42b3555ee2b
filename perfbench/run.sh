#!/usr/bin/env bash
# Builds the repute binary and the benchmark harness from the checkout
# this is run in, then runs one workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload map-dp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [[ ! -f go.mod || ! -d cmd/repute ]]; then
	echo "perfbench: $root holds no repute source (go.mod, cmd/repute); run from the checkout root" >&2
	exit 1
fi
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the go command's configuration in the checkout.
# Telemetry is switched off there: otherwise the go command starts a
# detached upload process that outlives the build.
printf off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/repute" ./cmd/repute >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -repute "$out/repute" "$@"
