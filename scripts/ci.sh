#!/bin/sh
# CI gate: vet, build, full test suite with the race detector, the
# chaos tests raced a second time with fresh counts, and a one-shot
# smoke run of the kernel, pass and harness benchmarks (each compiles
# and runs once, without burning benchmark time). It gates only what is
# deterministic — bits, allocation counts (TestKernelsZeroAllocs), op
# counts, exit codes — never a wall-clock time: speed is judged by
# alternating parent/change pairs (benchmark/README.md). Mirrors
# `make ci` for environments without make.
set -eux

# Formatting: every Go file as gofmt writes it.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
# Layering: the distributed reducer reads its frames through
# internal/frame and must not pull in the HTTP server to do it.
if go list -deps ./internal/distrib | grep -qx 'repro/internal/server'; then
    echo "internal/distrib depends on internal/server" >&2
    exit 1
fi
# The examples drive the facade end to end: the Fig. 2 imaging cycle,
# the W-stacked degridding pass (exits 1 if its accuracy regresses)
# and the quickstart's grid -> dirty image.
go run ./examples/imagingcycle
go run ./examples/wstacking
go run ./examples/quickstart
# Cross-compile check: off amd64 the tiles run the Go bodies of the
# pixel-lane routines and the frame CRC the hash/crc64 table (the asm is
# amd64-only), so arm64 must build, and vet the packages whose Go and
# asm declarations pair up.
GOOS=linux GOARCH=arm64 go build ./...
GOOS=linux GOARCH=arm64 go vet ./internal/core/ ./internal/xmath/ ./internal/frame/
# Fast-fail race pass over the concurrency-heavy packages (pipelines,
# fault tolerance, the lock-free metrics/tracer, the session server)
# in short mode before paying for the full raced suite below.
go test -race -short ./internal/core/... ./internal/faulttol/... ./internal/obs/... ./internal/checkpoint/... ./internal/server/... ./internal/distrib/...
# The same short race pass with the SIMD tier forced down via the
# IDG_SIMD override: the scalar tier runs the pixel-lane gridder and
# fused degridder through their Go bodies, the avx2 tier through the YMM
# forms on hosts whose detected tier is avx512 (the override can only
# lower the tier, so these are no-ops on narrower hosts rather than
# failures). The sky predictor's lanes and the fill built on them must
# keep Model.Predict's bits, and the golden hashes with them, on every
# tier. The frame CRC follows the tier too: the table under scalar, the
# carry-less multiply fold (PCLMULQDQ) under avx2, so the reduction
# stream runs on both. Both legs also run the
# eight kernel benchmarks, the two FFT steps (grid image pair,
# subgrid FFT stage) and the two tile-height ablations once each, so the
# Go and the YMM bodies run under the benchmark harness too.
IDG_SIMD=scalar go test -race -short ./internal/core/ ./internal/xmath/ ./internal/fft/ ./internal/sky/ ./internal/frame/ ./internal/distrib/
IDG_SIMD=avx2 go test -race -short ./internal/core/ ./internal/xmath/ ./internal/fft/ ./internal/sky/ ./internal/frame/ ./internal/distrib/
IDG_SIMD=scalar go test -count=1 -run 'TestFillMatchesPredictPerSample|TestDistribSingleWorkerGolden' .
IDG_SIMD=avx2 go test -count=1 -run 'TestFillMatchesPredictPerSample|TestDistribSingleWorkerGolden' .
IDG_SIMD=scalar GOMAXPROCS=1 go test -run '^$' -bench 'Benchmark(Gridder|Degridder)Kernel(ShortItems)?(Float32)?$|BenchmarkGridImagePair$|BenchmarkSubgridFFTStage$' -benchtime 1x .
IDG_SIMD=avx2 GOMAXPROCS=1 go test -run '^$' -bench 'Benchmark(Gridder|Degridder)Kernel(ShortItems)?(Float32)?$|BenchmarkGridImagePair$|BenchmarkSubgridFFTStage$' -benchtime 1x .
IDG_SIMD=scalar GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkAblation(Pixel|Degrid)TileRows$' -benchtime 1x ./internal/core/
IDG_SIMD=avx2 GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkAblation(Pixel|Degrid)TileRows$' -benchtime 1x ./internal/core/
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
# Every kernel, pass and harness benchmark runs once at the detected
# tier, so none of them rots unnoticed; scripts/pair.sh measures them.
go test -run '^$' -bench 'BenchmarkGridderKernel$|BenchmarkGridderKernelFloat32$|BenchmarkGridderKernelShortItems$|BenchmarkGridderKernelShortItemsFloat32$|BenchmarkDegridderKernel$|BenchmarkDegridderKernelFloat32$|BenchmarkDegridderKernelShortItems$|BenchmarkDegridderKernelShortItemsFloat32$|BenchmarkFullGriddingPass$|BenchmarkFullDegriddingPass$|BenchmarkAdderKernel$|BenchmarkAdderSharded$|BenchmarkSplitterSharded$|BenchmarkStreamedGriddingPass$|BenchmarkSubgridFFTStage$|BenchmarkGridFFT2048$|BenchmarkGridImagePair$|BenchmarkGridFingerprint$|BenchmarkWriteGridBinary$|BenchmarkFillFromModelPlan$' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkAblation(Pixel|Degrid)TileRows$' -benchtime 1x ./internal/core/
# The paired-comparison tool end to end on a tiny budget: two archived
# checkouts, alternating runs, the per-benchmark table.
scripts/pair.sh -n 2 -bench 'BenchmarkAdderKernel$' -benchtime 1x HEAD HEAD
# The benchmark is its own module (benchmark/go.mod), so the root
# `go build ./... && go test ./...` cannot see it: vet and test it and
# run every workload once on tiny shapes, or a facade rename breaks it
# silently.
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -workload all -smoke

