# Build/test entry points. `make ci` is what the robustness gate runs:
# vet, build, the full suite under the race detector, and the chaos
# tests (fault injection + cancellation) raced explicitly.

GO ?= go

.PHONY: all build fmt vet test race chaos examples bench-smoke ci

all: build

build:
	$(GO) build ./...

# Every Go file as gofmt writes it.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The chaos tests drive the worker pool through injected panics,
# corrupt visibilities, cancellation and simulated kills at the
# checkpoint protocol's crash points, and the distributed coordinator
# through concurrent reduction streams and killed workers; racing them
# exercises the report/cancel/resume paths under contention. The same
# pattern and packages as scripts/ci.sh.
chaos:
	$(GO) test -race -count=2 ./internal/faultinject/ ./internal/faulttol/
	$(GO) test -race -run 'Facade|Chaos|Cancel|Shard|Soak|Streamed|Checkpoint|Resume|Kill|Distrib' . ./internal/core/ ./internal/checkpoint/ ./internal/distrib/

# The examples drive the facade end to end: the Fig. 2 imaging cycle,
# the W-stacked degridding pass (exits 1 if its accuracy regresses)
# and the quickstart's grid -> dirty image.
examples:
	$(GO) run ./examples/imagingcycle
	$(GO) run ./examples/wstacking
	$(GO) run ./examples/quickstart

# The benchmark is its own module (benchmark/go.mod), invisible to
# `go build ./...` here: vet and test it, and run every workload once
# on tiny shapes, so a facade change cannot break it silently. The
# kernel, pass and harness benchmarks of the root package run once
# each at the detected tier, and the two tile-height ablations there and
# under IDG_SIMD=scalar and avx2, as in scripts/ci.sh.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkGridderKernel$$|BenchmarkGridderKernelFloat32$$|BenchmarkGridderKernelShortItems$$|BenchmarkGridderKernelShortItemsFloat32$$|BenchmarkDegridderKernel$$|BenchmarkDegridderKernelFloat32$$|BenchmarkDegridderKernelShortItems$$|BenchmarkDegridderKernelShortItemsFloat32$$|BenchmarkFullGriddingPass$$|BenchmarkFullDegriddingPass$$|BenchmarkAdderKernel$$|BenchmarkAdderSharded$$|BenchmarkSplitterSharded$$|BenchmarkStreamedGriddingPass$$|BenchmarkSubgridFFTStage$$|BenchmarkGridFFT2048$$|BenchmarkGridImagePair$$|BenchmarkGridFingerprint$$|BenchmarkWriteGridBinary$$|BenchmarkFillFromModelPlan$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkAblation(Pixel|Degrid)TileRows$$' -benchtime 1x ./internal/core/
	IDG_SIMD=scalar GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkAblation(Pixel|Degrid)TileRows$$' -benchtime 1x ./internal/core/
	IDG_SIMD=avx2 GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkAblation(Pixel|Degrid)TileRows$$' -benchtime 1x ./internal/core/
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -workload all -smoke
	scripts/pair.sh -n 2 -bench 'BenchmarkAdderKernel$$' -benchtime 1x HEAD HEAD

ci: fmt vet build race chaos examples bench-smoke
