# Developer entry points. CI runs the same verify steps (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test vet fmt-check docs race verify bench-go serve chaos lint lint-fix-baseline fuzz-smoke clean

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

# serve runs the MTTF query service locally (POST a Spec to /v1/mttf;
# see README.md, "Serving").
serve:
	$(GO) run ./cmd/soferr serve -addr 127.0.0.1:8080 -v

# chaos mirrors the CI chaos job: the scripted fault-injection suite
# (compile failures and panics, worker panics, eviction storms,
# cancellation races, stream cuts) and the single-flight cache's panic
# and eviction tests under the race detector, non-short so nothing
# skips. See DESIGN.md, "Failure model".
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Panic|Injected|Eviction|Readyz|RetryAfter|Resume' ./internal/faultinject/... ./internal/flight/... ./internal/montecarlo/... . ./internal/server/... ./client/...

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
# FuzzExactEngine's corpus holds the two FailureQuantile rounding inputs
# it once found (a 1e70/yr gzip trace; a 2.1e8 s busy/idle period), so
# they are replayed on every run. FuzzSimulatorMatchesReference holds
# the event-driven timing simulator to its cycle-by-cycle reference loop
# on random short programs and configurations. Its execs cost ~0.3 ms,
# so the default 60 s -fuzzminimizetime, spent shrinking the first
# new-coverage input, would outlast the 15 s budget with the exec count
# flat (138 execs, no new input); capped at 2 s it fuzzes (~33k execs,
# ~40 new inputs). The other targets run ~330k execs without the cap.
fuzz-smoke:
	$(GO) test -run FuzzSpecDecode -fuzz FuzzSpecDecode -fuzztime 15s .
	$(GO) test -run FuzzMergedExposure -fuzz FuzzMergedExposure -fuzztime 15s ./internal/trace
	$(GO) test -run FuzzBatchedInversion -fuzz FuzzBatchedInversion -fuzztime 15s ./internal/trace
	$(GO) test -run FuzzExactEngine -fuzz FuzzExactEngine -fuzztime 15s .
	$(GO) test -run FuzzSimulatorMatchesReference -fuzz FuzzSimulatorMatchesReference -fuzztime 15s -fuzzminimizetime 2s ./internal/turandot

# bench-go runs the Go benchmarks of the root package (experiments,
# queries, substrates), of the Monte-Carlo engines (among them
# BenchmarkFusedTrial over component counts) and of the server's
# streamed-sweep line encoder (BenchmarkSweepLine). A number the docs quote
# comes from one benchmark run with -count 10, as its median and
# min-max (README.md, "Performance"). The end-to-end server benchmark
# is perfbench: bash perfbench/run.sh --workload hot-queries --seed 1.
bench-go:
	$(GO) test -run='^$$' -bench=. -benchmem . ./internal/montecarlo ./internal/server

clean:
	$(GO) clean ./...
