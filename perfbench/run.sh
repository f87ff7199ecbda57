#!/usr/bin/env bash
# Builds tbaad and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-query --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache
# and the benchmark's scratch files all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

# Without the program's sources there is nothing to build or measure;
# fail before the Go toolchain starts anything.
if [ ! -f go.mod ] || [ ! -d cmd/tbaad ] || [ ! -f perfbench/go.mod ]; then
	echo "run.sh: run from a checkout of the repository root (go.mod, cmd/tbaad, perfbench)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home/.config/go/telemetry"
# Telemetry off: otherwise each go command forks a telemetry child that
# can outlive the run.
printf 'off\n' >"$out/home/.config/go/telemetry/mode"
# Keep everything the Go toolchain writes (build cache, module cache,
# telemetry under the config directory) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/tbaad" ./cmd/tbaad
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --tbaad "$out/tbaad" --work "$out" "$@"
