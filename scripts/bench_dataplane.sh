#!/bin/sh
# Data-plane benchmark sweep: tile-parallel turbo encode/decode and
# band-parallel rasterization, each across worker degrees {1, 2, 4,
# NumCPU}. Results land in BENCH_dataplane.json with par=1-relative
# speedups and the host's CPU count (the speedups only mean something
# on a multicore machine).
#
#   BENCHTIME=1x sh scripts/bench_dataplane.sh   # smoke run (check.sh)
#   sh scripts/bench_dataplane.sh                # full 1s-per-series run
#
# Set MIN_MBPS='<benchmark>:<floor>' to fail the run unless the named
# series hits the floor (check.sh gates the single-thread 720p encode
# this way).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_dataplane.json}"
MIN_MBPS="${MIN_MBPS:-}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkTurboEncode|BenchmarkTurboDecode' \
	-benchtime "$BENCHTIME" ./internal/turbo/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkRaster' \
	-benchtime "$BENCHTIME" ./internal/gles/ | tee -a "$tmp"

if [ -n "$MIN_MBPS" ]; then
	go run ./scripts/benchjson -o "$OUT" -min-mbps "$MIN_MBPS" <"$tmp"
else
	go run ./scripts/benchjson -o "$OUT" <"$tmp"
fi
echo "wrote $OUT"
