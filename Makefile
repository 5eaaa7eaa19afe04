# Developer/CI entry points. `make check` is the gate: formatting, vet, the
# project's own static analyzers (hcclint), and the full test suite under
# the race detector (the batch worker pool is the main concurrency surface).

GO ?= go

.PHONY: all build test race vet fmt-check lint lint-fix golden check bench report sweep-demo clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# hcclint enforces the repo's determinism, cache-key completeness, unit-
# suffix, unit-flow, and panic-policy invariants (see internal/analysis).
# lint.baseline records accepted pre-existing findings (currently none).
lint:
	$(GO) run ./cmd/hcclint -baseline lint.baseline ./...

# Apply hcclint's suggested fixes (unit-suffix renames, //hcclint:unit
# annotation inserts) in place; CI fails if this leaves the tree dirty.
lint-fix:
	$(GO) run ./cmd/hcclint -baseline lint.baseline -fix ./...

# Byte-identity gate for the protection-mode layer: every committed figure
# golden, plus the spelling-equivalence tests (every mode alias, and the
# empty mode for off, must simulate identically to the canonical name).
golden:
	$(GO) test ./internal/figures -run 'Golden|ModeSpelling' -count=1

check: fmt-check vet lint golden race

# One pass over the per-figure testing.B benchmarks. The performance
# benchmark with spreads and per-layer breakdown is hccperf:
# bash hccperf/run.sh --workload campaign|serve|sweep.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

report:
	$(GO) run ./cmd/hccreport

# A small grid sweep exercising the worker pool and the on-disk cache; run
# it twice to see the warm-cache path skip every simulation.
sweep-demo:
	$(GO) run ./cmd/hccsweep -workloads 2dconv,gemm,sc -modes off,tdx-h100 \
		-param PCIeGBps=8,16,32,64 -parallel 8 -cache .hcccache

clean:
	rm -rf .hcccache
