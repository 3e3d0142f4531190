# Build/test entry points. `make ci` is what the robustness gate runs:
# scripts/ci.sh, the one CI definition (formatting, vet, build, the
# layering check, the arm64 cross-build, the raced suite and chaos
# tests, every IDG_SIMD and GOMAXPROCS leg, the examples, the server
# and distributed smoke runs and the one-shot benchmark smoke).

GO ?= go

.PHONY: all build fmt vet test ci

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

ci:
	sh scripts/ci.sh
