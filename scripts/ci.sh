#!/bin/sh
# CI gate: vet, build, full test suite with the race detector, the
# chaos tests raced a second time with fresh counts, a one-shot smoke
# run of the kernel benchmarks (validates the bench -> JSON tooling
# without burning benchmark time), and a kernel performance regression
# gate against the committed baseline. Mirrors `make ci` for
# environments without make.
set -eux

go vet ./...
go build ./...
# Cross-compile check: the SIMD dispatch layer must keep the pure-Go
# fallbacks buildable on a register-poor non-amd64 target (the asm
# kernels are amd64-only; arm64 exercises the !amd64 stub files).
GOOS=linux GOARCH=arm64 go build ./...
# Fast-fail race pass over the concurrency-heavy packages (pipelines,
# fault tolerance, the lock-free metrics/tracer, the session server)
# in short mode before paying for the full raced suite below.
go test -race -short ./internal/core/... ./internal/faulttol/... ./internal/obs/... ./internal/checkpoint/... ./internal/server/... ./internal/distrib/...
# The same short race pass with the SIMD tier forced down via the
# IDG_SIMD override: the scalar tier runs the generic Go tiles, the
# avx2 tier runs the YMM forms of the pixel-lane gridder and fused
# degridder on hosts whose detected tier is avx512 (the override can
# only lower the tier, so these are no-ops on narrower hosts rather
# than failures). The sky predictor's lanes and the fill built on them
# must keep Model.Predict's bits, and the golden hashes with them, on
# every tier. The avx2 leg also runs the eight kernel benchmarks once
# each, so the YMM bodies run under the benchmark harness too.
IDG_SIMD=scalar go test -race -short ./internal/core/ ./internal/xmath/ ./internal/fft/ ./internal/sky/
IDG_SIMD=avx2 go test -race -short ./internal/core/ ./internal/xmath/ ./internal/fft/ ./internal/sky/
IDG_SIMD=scalar go test -count=1 -run 'TestFillMatchesPredictPerSample|TestDistribSingleWorkerGolden' .
IDG_SIMD=avx2 go test -count=1 -run 'TestFillMatchesPredictPerSample|TestDistribSingleWorkerGolden' .
IDG_SIMD=avx2 GOMAXPROCS=1 go test -run '^$' -bench 'Benchmark(Gridder|Degridder)Kernel(ShortItems)?(Float32)?$' -benchtime 1x .
# And with the core count pinned both ways: one thread hides panics and
# races that only a fan-out goroutine can raise, four threads hide what
# only the serial paths do, and a CI box has whatever it has. -count=1
# because the test cache does not key on GOMAXPROCS.
GOMAXPROCS=1 go test -count=1 -short ./internal/core/
GOMAXPROCS=4 go test -count=1 -short ./internal/core/
go test -race ./...
go test -race -count=2 ./internal/faultinject/ ./internal/faulttol/
# Kill-and-resume chaos harness and the checkpoint round-trip golden
# test run raced here: the crash hooks panic on the scheduler's
# coordinating goroutine and the resumed grid must still hash to the
# committed golden fingerprint. 'Distrib' pulls in the distributed
# coordinator chaos suite: concurrent reduction streams, worker kills
# mid-reduction, and relaunch-with-resume, all under the race
# detector.
go test -race -run 'Facade|Chaos|Cancel|Shard|Soak|Streamed|Checkpoint|Resume|Kill|Distrib' . ./internal/core/ ./internal/checkpoint/ ./internal/distrib/
# Server integration pass: build the service binaries, boot idgserver
# on a kernel-assigned port, replay a short multi-tenant idgload run
# with -verify (every session's grid SHA-256 checked against the
# locally computed golden hash), then SIGTERM and require a clean
# drain (the server exits non-zero if any session survives it).
scripts/server_smoke.sh
# Distributed integration pass: coordinator + 4 exec'd worker
# processes, run clean and then with one worker killed mid-stream;
# both runs must print the same final grid SHA-256 and the chaos run
# must report exactly one restart.
scripts/distrib_smoke.sh
scripts/bench.sh -short
# The benchmark is its own module (benchmark/go.mod), so the root
# `go build ./... && go test ./...` cannot see it: vet and test it and
# run every workload once on tiny shapes, or a facade rename breaks it
# silently.
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -workload all -smoke

# Performance regression gate: briefly re-measure the eight kernel
# benchmarks (both precisions, each at the dense and the short-item
# shape) plus the two FFT-stage benchmarks and
# compare their throughput against BENCH_kernels.json; a slowdown
# beyond BENCH_THRESHOLD percent (default 10) fails CI. The float32
# kernels are in the gate because they are the SIMD dispatch layer's
# reason to exist: a gridder that falls from the avx512 tier's ZMM
# pixel-lane body to the YMM one drops to half its MVis/s, and either
# kernel falling back to the generic tile to a tenth, far beyond any
# threshold. The
# short-item benchmarks guard the tiles' row-per-channel form and the
# A-term epilogue/prologue the same way: an item shape that falls back
# to the generic scalar tile (float32: to a twentieth of its MVis/s), or
# a sandwich that falls back to Matrix2 arithmetic, loses a third to a
# half. The FFT benchmarks
# guard the radix-4 and lane-parallel mixed-radix engines: a scalar
# per-column subgrid transform is a >4x slowdown on the subgrid stage.
# The fingerprint, grid-writer and fill benchmarks guard the
# distributed run's harness: a per-cell hash Write, a reflection
# encode, a per-sample brightness matrix or a fill off its SIMD lanes
# (the predictor runs eight samples per ZMM) each cost well over the
# threshold.
# -allow-missing because this is a deliberate subset run: the
# baseline holds the full bench.sh set, CI re-measures only the
# kernels. -count 3 because benchjson gates on the best duplicate
# run — single-sample minima on a shared CI box measure scheduling
# noise, not regressions. GOMAXPROCS=1 because the baseline is measured
# that way (scripts/bench.sh) and benchmark names carry the -N suffix.
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkGridderKernel$|BenchmarkGridderKernelFloat32$|BenchmarkGridderKernelShortItems$|BenchmarkGridderKernelShortItemsFloat32$|BenchmarkDegridderKernel$|BenchmarkDegridderKernelFloat32$|BenchmarkDegridderKernelShortItems$|BenchmarkDegridderKernelShortItemsFloat32$|BenchmarkSubgridFFTStage$|BenchmarkGridFFT2048$|BenchmarkGridFingerprint$|BenchmarkWriteGridBinary$|BenchmarkFillFromModelPlan$' -benchtime 1s -count 3 . |
    go run ./cmd/benchjson > "$out"
go run ./cmd/benchjson -compare -allow-missing -threshold "${BENCH_THRESHOLD:-10}" BENCH_kernels.json "$out"
# Distributed scalability gate: re-measure the 1/2/4/8-worker
# distributed passes and compare against BENCH_distrib.json. The
# threshold is looser (default 30 percent) because each sample is a
# whole multi-worker pass — process scheduling noise dwarfs kernel
# noise — but a fill that reverts to the full visibility set per
# worker or a wire path that ships full zero grids still blows far
# past it at workers=8.
go test -run '^$' -bench 'BenchmarkDistribScale' -benchtime 1s -count 3 . |
    go run ./cmd/benchjson > "$out"
go run ./cmd/benchjson -compare -threshold "${BENCH_DISTRIB_THRESHOLD:-30}" BENCH_distrib.json "$out"
