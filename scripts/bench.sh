#!/bin/sh
# Kernel/pipeline benchmark runner: measures the gridder and degridder
# kernels (both precisions, plus their short-item regime), the full
# warm pipeline passes with allocation tracking and the distributed
# run's harness steps (grid fingerprint, grid writer, model fill — on
# one core the fill's workers=2 row repeats workers=1), and writes
# the machine-readable BENCH_kernels.json (ns/op, allocs/op,
# visibilities/sec; see cmd/benchjson), the committed record of the
# last full run. The committed file is measured on one core
# (GOMAXPROCS=1 scripts/bench.sh), which is what keeps the kernel rows
# at 0 allocs/op: with more, GridSubgrid fans its pixel tiles out. The
# record is not a gate; speed claims use alternating parent/change
# pairs (benchmark/README.md).
#
# Usage:
#   scripts/bench.sh          # full run, rewrites BENCH_kernels.json
#   scripts/bench.sh -short   # 1-iteration smoke run (CI); result is
#                             # parsed and validated but not committed
#
# BENCH_OUT overrides the output path in any mode.
set -eu
cd "$(dirname "$0")/.."

bench='BenchmarkGridderKernel$|BenchmarkGridderKernelFloat32$|BenchmarkGridderKernelShortItems$|BenchmarkGridderKernelShortItemsFloat32$|BenchmarkDegridderKernel$|BenchmarkDegridderKernelFloat32$|BenchmarkDegridderKernelShortItems$|BenchmarkDegridderKernelShortItemsFloat32$|BenchmarkFullGriddingPass$|BenchmarkFullDegriddingPass$|BenchmarkAdderKernel$|BenchmarkAdderSharded$|BenchmarkSplitterSharded$|BenchmarkStreamedGriddingPass$|BenchmarkSubgridFFTStage$|BenchmarkGridFFT2048$|BenchmarkGridFingerprint$|BenchmarkWriteGridBinary$|BenchmarkFillFromModelPlan$'
out="${BENCH_OUT:-BENCH_kernels.json}"
# The full pipeline passes take ~0.5 s per iteration; give them a few
# iterations so the committed numbers aren't single-sample noise.
benchtime="-benchtime=${BENCH_TIME:-3s}"
if [ "${1:-}" = "-short" ]; then
    benchtime='-benchtime=1x'
    if [ -z "${BENCH_OUT:-}" ]; then
        out="$(mktemp)"
        trap 'rm -f "$out"' EXIT
    fi
fi

raw="$(go test -run '^$' -bench "$bench" -benchmem $benchtime .)"
printf '%s\n' "$raw"
printf '%s\n' "$raw" | go run ./cmd/benchjson > "$out"
echo "bench.sh: wrote $out" >&2
