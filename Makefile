# Developer/CI entry points. `make check` is the gate: formatting, vet, the
# project's own static analyzers (hcclint), the full test suite under the
# race detector (the batch worker pool and GenerateAll's figure fan-out are
# the concurrency surfaces), and vet and tests of the hccperf benchmark
# module.

GO ?= go

.PHONY: all build test race vet fmt-check lint lint-fix golden fuzz perf-check check bench report sweep-demo clean

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

# Byte-identity gate: every committed golden (figures, the Chrome traces of
# the root package, the sim engine's interleaving, the cuda completion count's
# two-stream trace, and each command's stdout), the spelling-equivalence tests (every mode alias, and the empty
# mode for off, must simulate identically to the canonical name), and the
# differential tests that hold replayed copies to their step chains and the
# model's edge sweep to the span-set projection over the whole suite.
golden:
	$(GO) test . ./internal/sim ./internal/figures ./internal/cuda ./internal/serve ./internal/core ./cmd/... \
		-run 'Golden|ModeSpelling|Differential' -count=1

# Run each native fuzz target for FUZZTIME beyond its seed corpus (plain
# `go test` replays only the seeds). -fuzz takes one target per package, so
# each runs on its own.
FUZZTIME ?= 5s
FUZZ_TARGETS = \
	./internal/swcrypto:FuzzXTSRoundTrip \
	./internal/swcrypto:FuzzChaCha20Poly1305 \
	./internal/swcrypto:FuzzGHASHConsistency \
	./internal/serve:FuzzKVPool \
	./internal/serve:FuzzServeTrace \
	./internal/sim/eventq:FuzzQueue \
	./internal/trace:FuzzTraceLog \
	./internal/core:FuzzDecompose \
	./internal/ccmode:FuzzByName \
	./internal/batch:FuzzParseAxis \
	./internal/cuda:FuzzPlatformByName \
	./internal/cuda:FuzzConfigNormalize

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) "$${t%%:*}"; \
	done

# hccperf is its own module, so ./... never reaches it; this catches an obs
# or cuda API change that breaks the benchmark.
perf-check:
	$(GO) -C hccperf vet .
	$(GO) -C hccperf test .

check: fmt-check vet lint golden race perf-check

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
