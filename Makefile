# Developer entry points. CI runs the same verify steps (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test vet fmt-check docs race verify bench bench-go serve chaos lint lint-fix-baseline fuzz-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "needs gofmt:"; echo "$$out"; exit 1; fi

# docs mirrors the CI docs job: vet, formatting, and the godoc
# Example tests (which compile every documented snippet).
docs: vet fmt-check
	$(GO) test -run Example .

# race mirrors the CI race job: the Monte-Carlo worker pool first (the
# code most exposed to data races), then everything in short mode.
race:
	$(GO) test -race -short ./internal/montecarlo/...
	$(GO) test -race -short ./...

verify: vet build test

# bench records the Monte-Carlo engine micro-benchmarks in
# BENCH_mc.json, the fused engine's N-scaling and adaptive-precision
# numbers in BENCH_fused.json, the exact engine's closed-form-vs-
# adaptive-sampling comparison in BENCH_exact.json, the sweep engine's
# full-grid speedup in BENCH_sweep.json, and the query server's
# cold-vs-cache-hit request latency in BENCH_serve.json, so the perf
# trajectory is tracked PR over PR. Every report is validated against
# the shared schema (internal/benchfmt) after writing.
bench:
	$(GO) run ./cmd/soferr bench -out BENCH_mc.json -fused-out BENCH_fused.json -exact-out BENCH_exact.json -sweep-out BENCH_sweep.json -serve-out BENCH_serve.json
	$(GO) run ./cmd/soferr bench -validate

# serve runs the MTTF query service locally (POST a Spec to /v1/mttf;
# see README.md, "Serving").
serve:
	$(GO) run ./cmd/soferr serve -addr 127.0.0.1:8080 -v

# chaos mirrors the CI chaos job: the scripted fault-injection suite
# (compile failures, worker panics, eviction storms, cancellation races,
# stream cuts) under the race detector, non-short so nothing skips. See
# DESIGN.md, "Failure model".
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Panic|Injected|Eviction|Readyz|RetryAfter|Resume' ./internal/faultinject/... ./internal/montecarlo/... ./internal/sweep/... ./internal/server/... ./client/...

# lint runs the soferrlint static-contract suite (nondeterminism,
# hotpath, floatprec, allocfree, errcontract, ctxflow, faultpoint,
# gocontain — see DESIGN.md, "Static contracts") over every package via
# the go vet -vettool protocol, then the compiler-verified escape
# baseline diff (`soferrlint escape`). Editors can run the same binary:
# go vet -vettool=$$(which soferrlint).
lint:
	$(GO) build -o bin/soferrlint ./cmd/soferrlint
	$(GO) vet -vettool=bin/soferrlint ./...
	bin/soferrlint escape

# lint-fix-baseline deliberately regenerates the hotpath escape
# baseline from fresh compiler output, preserving per-entry comments
# for entries that survive. Review the diff before committing: every
# new line is a heap allocation in a trial kernel.
lint-fix-baseline:
	$(GO) build -o bin/soferrlint ./cmd/soferrlint
	bin/soferrlint escape -update

# fuzz-smoke gives each native fuzz target a short budget on top of its
# committed seed corpus (testdata/fuzz). CI runs the same step; longer
# local sessions: go test -fuzz FuzzSpecDecode -fuzztime 5m .
# FuzzExactEngine runs last: it still finds the known FailureQuantile
# rounding inputs (ROADMAP), and make stops at the first failing target.
fuzz-smoke:
	$(GO) test -run FuzzSpecDecode -fuzz FuzzSpecDecode -fuzztime 15s .
	$(GO) test -run FuzzMergedExposure -fuzz FuzzMergedExposure -fuzztime 15s ./internal/trace
	$(GO) test -run FuzzBatchedInversion -fuzz FuzzBatchedInversion -fuzztime 15s ./internal/trace
	$(GO) test -run FuzzExactEngine -fuzz FuzzExactEngine -fuzztime 15s .

# bench-go runs the full go-test benchmark suite (experiments +
# substrates) without writing the JSON report.
bench-go:
	$(GO) test -run='^$$' -bench=. -benchmem .

clean:
	$(GO) clean ./...
