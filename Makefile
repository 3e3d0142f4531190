# Build/test entry points. `make ci` is what the robustness gate runs:
# vet, build, the full suite under the race detector, and the chaos
# tests (fault injection + cancellation) raced explicitly.

GO ?= go

.PHONY: all build fmt vet test race chaos bench-smoke ci

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
# checkpoint protocol's crash points; racing them exercises the
# report/cancel/resume paths under contention.
chaos:
	$(GO) test -race -count=2 ./internal/faultinject/ ./internal/faulttol/
	$(GO) test -race -run 'Facade|Chaos|Cancel|Checkpoint|Resume|Kill' . ./internal/core/ ./internal/checkpoint/

# The benchmark is its own module (benchmark/go.mod), invisible to
# `go build ./...` here: vet and test it, and run every workload once
# on tiny shapes, so a facade change cannot break it silently.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -workload all -smoke
	scripts/pair.sh -n 2 -bench 'BenchmarkAdderKernel$$' -benchtime 1x HEAD HEAD

ci: fmt vet build race chaos bench-smoke
