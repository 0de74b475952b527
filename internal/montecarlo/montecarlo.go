// Package montecarlo estimates MTTF from first principles, exactly as
// the paper's reference method (Section 4.3): for every trial it draws
// raw error arrivals from independent exponential inter-arrival times,
// masks each arrival according to the component's masking trace, and
// records the time of the first unmasked arrival; the system fails when
// its earliest component fails. The average over trials is the MTTF, and
// no AVF or SOFR assumption is involved.
//
// Two engines are provided:
//
//   - The fused engine samples each trial in closed form. The
//     superposition of the components' thinned processes is an
//     inhomogeneous Poisson process with cumulative hazard
//     H(t) = sum_i rate_i*m_i(t), where m_i is component i's
//     cumulative exposure; one merged hazard table
//     (trace.MergedExposure, aligned on the components' hyperperiod)
//     turns a system trial into one Exp(1) draw split into a geometric
//     number of survived hyperperiods plus one binary search —
//     O(log S_total) per trial, independent of the raw rate, the AVF,
//     and the component count. Components outside the merge
//     (non-materialized traces, incommensurate periods, over-cap
//     tables) are sampled per component inside the same trial, each by
//     inverting its own cumulative exposure. It is the default (the
//     zero Engine).
//   - The exact engine is not a sampler at all: it integrates the
//     merged hazard table once — segment-wise closed-form
//     int exp(-H(t)) dt within one hyperperiod, geometric tail
//     exp(-H(P)) across hyperperiods — and answers MTTF, Reliability,
//     and FailureQuantile with no RNG, no trials, and zero standard
//     error. A single failing component integrates on its own trace,
//     with no merge. Multi-component systems the table cannot
//     represent (incommensurate periods, over-cap merges, lazy traces
//     alongside others) are refused with the typed ErrExactUnavailable
//     so callers can fall back to the fused engine.
//
// Both engines are property-tested against each other, against the
// closed forms in package analytic, and against the paper's literal
// per-component simulation, kept as a test-only oracle.
//
//soferr:deterministic
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/soferr/soferr/internal/faultinject"
	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/xrand"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errNoComponents = errors.New("montecarlo: no components")
)

// Component is one failure source: a raw-error Poisson process filtered
// by a masking trace.
type Component struct {
	// Name labels the component in errors and reports.
	Name string
	// Rate is the raw soft error rate in errors/second.
	Rate float64
	// Trace is the component's masking trace.
	Trace trace.Trace
}

// Engine selects the trial implementation. The zero value is Fused.
type Engine int

const (
	// Fused samples the whole system's failure time from the merged
	// cumulative-hazard table (the superposition of the components'
	// thinned processes): one Exp(1) draw plus one binary search per
	// trial, O(log S_total), independent of rate, AVF, and component
	// count. Components whose traces cannot join the merge
	// (non-materialized traces, incommensurate periods) are sampled
	// per component inside the same trial by exposure inversion. The
	// default engine.
	Fused Engine = iota
	// Exact integrates the merged cumulative-hazard table in closed
	// form instead of sampling it: MTTF = int_0^inf exp(-H(t)) dt,
	// evaluated as one hyperperiod's segment-wise truncated-exponential
	// integral times the geometric series in exp(-H(P)). Deterministic:
	// no RNG, no trials, zero standard error. Queries on systems whose
	// hazard cannot be tabulated return ErrExactUnavailable.
	Exact
)

// String returns the engine's CLI name.
func (e Engine) String() string {
	switch e {
	case Fused:
		return "fused"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// EngineByName parses a CLI engine name, case-insensitively.
func EngineByName(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "fused":
		return Fused, nil
	case "exact":
		return Exact, nil
	default:
		return 0, fmt.Errorf("montecarlo: unknown engine %q (want fused or exact)", name)
	}
}

// MarshalText encodes the engine by its CLI name, so JSON documents and
// flag defaults spell engines as EngineByName reads them.
func (e Engine) MarshalText() ([]byte, error) {
	name := e.String()
	if _, err := EngineByName(name); err != nil {
		return nil, err
	}
	return []byte(name), nil
}

// UnmarshalText parses an engine name with EngineByName; the empty name
// is the default Fused engine.
func (e *Engine) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*e = Fused
		return nil
	}
	v, err := EngineByName(string(text))
	if err != nil {
		return err
	}
	*e = v
	return nil
}

// Config controls a Monte-Carlo run. The zero value is usable: it means
// DefaultTrials trials, seed 0, the Fused engine, and DefaultSampler
// (PCG for a fixed-trial run).
type Config struct {
	// Trials is the number of independent trials (default DefaultTrials).
	Trials int
	// Seed selects the deterministic random stream. Runs with equal
	// seeds, trials, and engine produce identical results regardless of
	// worker count.
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Engine selects the trial implementation (default Fused).
	Engine Engine
	// TargetRelStdErr, when positive, switches the run to adaptive
	// precision targeting: trials run in deterministic doubling rounds
	// until the streamed relative standard error (StdErr/MTTF) reaches
	// the target, the Trials cap is hit, or ctx ends. The round
	// schedule depends only on the trial indices (per-trial streams
	// derive from the seed), so adaptive results are bit-identical for
	// any worker count, exactly like fixed-trial runs.
	TargetRelStdErr float64
	// Sampler selects the uniform source beneath the trial kernels.
	// DefaultSampler resolves per run: Sobol for an adaptive run that
	// allows it, PCG otherwise (see DefaultSampler).
	Sampler Sampler
}

// DefaultTrials matches the precision regime of the paper's 1,000,000
// trials closely enough for <1% standard error on every experiment while
// keeping the full design-space sweep laptop-sized.
const DefaultTrials = 200000

// DefaultBatchSize is the block of sorted hazard targets the benchmark
// module (perfbench) hands to trace.MergedExposure.InvertSortedInto
// when it times sorted inversion. No trial in this package batches;
// the constant stays only because the benchmark reads it.
const DefaultBatchSize = 64

// Result is a Monte-Carlo MTTF estimate.
type Result struct {
	// MTTF is the mean observed time to failure in seconds.
	MTTF float64
	// StdErr is the standard error of the mean.
	StdErr float64
	// Trials is the number of trials used.
	Trials int
	// Sampler is the sampler the run used: PCG or Sobol, never
	// DefaultSampler. Exact answers name PCG; a never-failing system,
	// which runs no trial, names the sampler asked for (PCG for
	// DefaultSampler).
	Sampler Sampler
}

// RelStdErr returns StdErr/MTTF (NaN for a zero-MTTF result).
func (r Result) RelStdErr() float64 { return r.StdErr / r.MTTF }

// ErrTrialPanic tags a run whose trial worker panicked — a panicking
// trace implementation, a corrupted table, or an injected chaos fault.
// The panic is contained in the worker goroutine and surfaced as a
// normal error on the estimate path (wrapping ErrTrialPanic, with the
// panic value and stack in the message) instead of killing the
// process; sibling workers are cancelled as for any trial error.
var ErrTrialPanic = errors.New("montecarlo: trial worker panicked")

// fiTrialPoint is the chaos-test injection point hit once per claimed
// trial block inside each worker goroutine (see internal/faultinject).
// Disarmed — always, in production — it costs one atomic load per
// trialBlock trials.
const fiTrialPoint = "montecarlo.trial"

// fiRelayPoint is the chaos-test injection point hit once per run at
// the start of the context-cancellation relay goroutine (which only
// exists for contexts with a Done channel). Disarmed it costs one
// atomic load per run.
const fiRelayPoint = "montecarlo.cancelrelay"

// Compiled is a validated series system whose engine precomputation —
// the Fused merged table and fallback samplers, the Exact integration
// state — is built once, on first use, so that repeated queries
// (different trial counts, seeds, or engines) skip straight to the
// trial loop.
type Compiled struct {
	components []Component
	// anyVulnerable records whether some component can ever fail; when
	// false every MTTF query reports +Inf.
	anyVulnerable bool

	// fused is the Fused engine's precomputation, built lazily on first
	// use: the merge walks every segment of every component over the
	// hyperperiod, which compile-only callers should never pay for. Its
	// merged table is the system's only one; the Exact state reads it.
	fusedOnce sync.Once
	fused     *fusedState

	// exact is the Exact engine's closed-form integration state.
	exactOnce sync.Once
	exact     *exactState
}

// Compile validates components; the per-engine state is built lazily by
// the first query that needs it. The component slice is copied; the
// traces are shared and must not be mutated afterwards.
func Compile(components []Component) (*Compiled, error) {
	if len(components) == 0 {
		return nil, errNoComponents
	}
	c := &Compiled{components: make([]Component, len(components))}
	copy(c.components, components)
	for i := range c.components {
		comp := &c.components[i]
		if comp.Rate < 0 || math.IsNaN(comp.Rate) || math.IsInf(comp.Rate, 0) {
			return nil, fmt.Errorf("montecarlo: component %d (%s) has invalid rate %v", i, comp.Name, comp.Rate)
		}
		if comp.Trace == nil {
			return nil, fmt.Errorf("montecarlo: component %d (%s) has nil trace", i, comp.Name)
		}
		if comp.Rate > 0 && comp.Trace.AVF() > 0 {
			c.anyVulnerable = true
		}
	}
	return c, nil
}

// SystemMTTF estimates the MTTF of a series system of components: a
// single-use convenience over Compile + MTTF. Cancelling ctx aborts the
// run and returns ctx.Err(). No program path calls it; it is kept as a
// named cross-package test helper for the montecarlo, softarch and root
// package tests.
func SystemMTTF(ctx context.Context, components []Component, cfg Config) (Result, error) {
	c, err := Compile(components)
	if err != nil {
		return Result{}, err
	}
	return c.MTTF(ctx, cfg)
}

// trialBlock is the unit of work a worker claims at a time. Blocks are
// accumulated independently and merged in block order, so the result is
// bit-identical for any worker count or scheduling. It is also the
// first round of an adaptive (TargetRelStdErr) run.
const trialBlock = 4096

// MTTF estimates the system MTTF. Failure times are folded into
// per-block Welford accumulators as they are produced, so memory is
// O(workers + blocks), not O(trials). Cancelling ctx aborts the run
// mid-trial and returns ctx.Err(), distinct from any trial error.
func (c *Compiled) MTTF(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if !c.anyVulnerable {
		// A system that can never fail has a well-defined answer, not an
		// error: MTTF = +Inf, known exactly (consistent with the
		// deterministic estimators and with FIT = 0). No draw is made,
		// so DefaultSampler names PCG, as it does wherever Sobol has no
		// dimension to fill.
		sampler := cfg.Sampler
		if sampler == DefaultSampler {
			sampler = PCG
		}
		return Result{MTTF: math.Inf(1), Sampler: sampler}, nil
	}
	if cfg.TargetRelStdErr < 0 || math.IsNaN(cfg.TargetRelStdErr) {
		return Result{}, fmt.Errorf("montecarlo: invalid TargetRelStdErr %v", cfg.TargetRelStdErr)
	}

	if cfg.Engine == Exact {
		// The Exact engine runs no trials: the answer is the closed-form
		// integral, independent of Trials, Seed, Workers, and
		// TargetRelStdErr.
		mttf, err := c.ExactMTTF()
		if err != nil {
			return Result{}, err
		}
		return Result{MTTF: mttf, Sampler: PCG}, nil
	}

	trials := cfg.Trials
	if trials <= 0 {
		trials = DefaultTrials
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	br, err := c.newBlockRunner(cfg, trials, cfg.TargetRelStdErr > 0)
	if err != nil {
		return Result{}, err
	}
	stopRelay := br.startCancelRelay(ctx)
	defer stopRelay()

	res := br.runRounds(ctx, cfg.TargetRelStdErr, trials, workers)
	// Join the relay before reading the error state: its failure path
	// writes trialErr, and stopping it here makes the read race-free,
	// the injected-fault tests deterministic, and a relay-side failure
	// impossible to lose to a round boundary that preceded it.
	stopRelay()
	// Context cancellation wins over trial errors: the caller asked the
	// run to stop, and partial-trial errors after that are moot.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := br.err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// mergeBlockAccs folds per-block accumulators (reps consecutive
// entries per block, in block order) into one accumulator per
// replicate. Block order makes the merge independent of worker
// scheduling — the determinism contract.
func mergeBlockAccs(merged, accs []numeric.Welford) {
	reps := len(merged)
	for b := 0; b < len(accs)/reps; b++ {
		for r := 0; r < reps; r++ {
			merged[r].Merge(accs[b*reps+r])
		}
	}
}

// newBlockRunner resolves a Config into a ready-to-run blockRunner:
// the Fused trial kernel and the sampler mode. It is the one place that
// knows the system's draw layout, so it resolves DefaultSampler for a
// run of trials (the cap, when adaptive).
func (c *Compiled) newBlockRunner(cfg Config, trials int, adaptive bool) (*blockRunner, error) {
	if cfg.Engine != Fused {
		return nil, fmt.Errorf("montecarlo: unknown engine %v", cfg.Engine)
	}
	fs := c.fusedState()
	br := &blockRunner{
		trial:   func(ds *drawSource) float64 { return trialFused(fs, ds) },
		seed:    cfg.Seed,
		reps:    1,
		sampler: PCG,
	}

	dims := fs.qmcTrialDims()
	switch cfg.Sampler {
	case PCG:
		return br, nil
	case DefaultSampler:
		// Sobol's error bar is checked against Exact for adaptive runs
		// whose replicates each hold at least trialBlock/qmcReplicates
		// points and draw every uniform from the sequence; fixed runs keep
		// the PCG streams published tables were made with.
		if !adaptive || trials < trialBlock || dims == 0 || dims > xrand.MaxSobolDims {
			return br, nil
		}
	case Sobol:
		br.sampler = Sobol
		// dims == 0 means no sampler consumes draws (every per-period
		// exposure underflowed): all trials are +Inf whatever the
		// sampler, so the PCG path is already exact and replicate-free.
		if dims == 0 {
			return br, nil
		}
	default:
		return nil, fmt.Errorf("montecarlo: unknown sampler %v", cfg.Sampler)
	}
	qs, err := newQMCState(cfg.Seed, dims)
	if err != nil {
		return nil, err
	}
	br.qmc, br.reps, br.sampler = qs, qmcReplicates, Sobol
	return br, nil
}

// replicateStats reduces per-replicate accumulators to a point
// estimate and its standard error. A single replicate (the PCG
// sampler) reports the plain streamed mean and iid standard error,
// exactly as before the sampler abstraction existed. Multiple
// replicates (the Sobol sampler) report the pooled mean — every trial
// weighs equally — with the standard error of the replicate means:
// scrambled-QMC trials within one replicate are deliberately
// anti-correlated, so the iid formula would overstate the error, while
// the K replicates are genuinely independent. A run of fewer trials
// than replicates leaves the trailing replicates empty; they hold no
// mean and are skipped, so one non-empty replicate reports a zero
// standard error, as a one-trial PCG run does.
func replicateStats(reps []numeric.Welford) (mean, se float64) {
	if len(reps) == 1 {
		return reps[0].Mean(), reps[0].StdErr()
	}
	var pooled, means numeric.Welford
	for _, w := range reps {
		if w.Count() == 0 {
			continue
		}
		pooled.Merge(w)
		means.Add(w.Mean())
	}
	// Welford.StdErr over the K replicate means is sd(means)/sqrt(K):
	// the standard error of their average, which the pooled mean is
	// (replicates hold equal trial counts by block alignment).
	return pooled.Mean(), means.StdErr()
}

// finishResult folds the merged per-replicate accumulators into a
// Result. A mean of +Inf (every trial beyond the representable
// horizon) is an exactly known answer, not a noisy one: its standard
// error is forced to 0 rather than the NaN that Inf-valued Welford
// updates produce.
func finishResult(reps []numeric.Welford, trials int, sampler Sampler) Result {
	mean, se := replicateStats(reps)
	if math.IsInf(mean, 1) {
		se = 0
	}
	return Result{MTTF: mean, StdErr: se, Trials: trials, Sampler: sampler}
}

// adaptiveConverged reports whether the merged accumulators meet the
// relative-standard-error target. Infinite means are exactly known;
// NaN spreads (mixed finite/Inf samples) never converge early.
func adaptiveConverged(reps []numeric.Welford, target float64) bool {
	mean, se := replicateStats(reps)
	if math.IsInf(mean, 1) {
		return true
	}
	if math.IsNaN(se) || mean == 0 {
		return se == 0
	}
	return se <= target*math.Abs(mean)
}

// runRounds executes the summary trials [0, cap) in rounds. A fixed
// run (target 0) is a single round of cap trials. An adaptive run
// starts with one trialBlock and doubles each round until the streamed
// relative standard error crosses target or the cap is reached. Every
// round covers the absolute trial-index space (per-trial streams from
// (seed, index), blocks merged in index order), so the result at a
// given stop point is bit-identical for any worker count, and an
// adaptive run that stops at the cap equals the fixed run of the same
// length; the stop decision depends only on round-boundary statistics,
// which are equally deterministic. A failed or canceled round ends the
// run with a zero Result; the caller reports the error.
func (br *blockRunner) runRounds(ctx context.Context, target float64, cap, workers int) Result {
	merged := make([]numeric.Welford, br.reps)
	done := 0
	round := cap
	if target > 0 {
		round = min(trialBlock, cap)
	}
	for {
		numBlocks := (round - done + trialBlock - 1) / trialBlock
		accs := make([]numeric.Welford, numBlocks*br.reps)
		br.runRange(done, round, workers, accs)
		if ctx.Err() != nil || br.err() != nil {
			return Result{}
		}
		mergeBlockAccs(merged, accs)
		done = round
		if done >= cap || adaptiveConverged(merged, target) {
			return finishResult(merged, done, br.sampler)
		}
		round = min(2*round, cap)
	}
}

// blockRunner executes trial blocks across a worker pool, one trial at
// a time. Workers reuse one draw source (a Rand value reseeded per
// trial, plus the shared Sobol replicates in QMC mode), so the
// steady-state trial loop performs no allocations (asserted by
// TestTrialLoopDoesNotAllocate); per-run setup (accumulator slices,
// goroutines) stays O(workers + blocks).
type blockRunner struct {
	trial func(ds *drawSource) float64
	seed  uint64
	// qmc is non-nil for the Sobol sampler; reps is the number of
	// interleaved replicate accumulators per block (1 for PCG). sampler
	// is the resolved sampler the Result reports.
	qmc      *qmcState
	reps     int
	sampler  Sampler
	canceled atomic.Bool
	mu       sync.Mutex
	trialErr error
}

func (br *blockRunner) fail(err error) {
	br.mu.Lock()
	if br.trialErr == nil {
		br.trialErr = err
	}
	br.mu.Unlock()
	// One bad trace means every sibling's remaining trials are wasted
	// work: cancel instead of burning the trial budget.
	br.canceled.Store(true)
}

// err returns the first recorded trial error. Reads go through the
// lock because the cancellation relay can record a failure while
// adaptive rounds are still consulting the error state.
func (br *blockRunner) err() error {
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.trialErr
}

// startCancelRelay mirrors ctx cancellation onto the canceled flag the
// trial loops already poll, so a context check costs one atomic load
// per trial instead of a channel select. A context that can never be
// canceled needs no relay and gets a no-op stop. The returned stop
// function is idempotent and joins the goroutine, so a caller that
// stops the relay before reading the error state observes any
// relay-side failure.
func (br *blockRunner) startCancelRelay(ctx context.Context) (stop func()) {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	quit := make(chan struct{})
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		// The relay shares the workers' containment contract: a panic
		// here — reachable today only through the chaos injection point
		// below — becomes a typed trial error on the estimate path
		// instead of killing the process.
		defer func() {
			if rec := recover(); rec != nil {
				br.fail(fmt.Errorf("%w: cancellation relay: %v\n%s", ErrTrialPanic, rec, debug.Stack()))
			}
		}()
		if err := faultinject.Fire(fiRelayPoint); err != nil {
			br.fail(err)
			return
		}
		select {
		case <-done:
			br.canceled.Store(true)
		case <-quit:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-joined
	}
}

// runRange executes trials [lo, hi) of the absolute trial-index space;
// lo must be trialBlock-aligned. It folds each block into reps
// consecutive accumulators starting at
// accs[(blockIndex-lo/trialBlock)*reps], one per Sobol replicate
// (trial i belongs to replicate i mod reps; reps is 1 for PCG, so the
// layout and fold order are exactly the historical ones). Blocks are
// claimed off an atomic counter, so any worker count produces the same
// per-block accumulators.
func (br *blockRunner) runRange(lo, hi, workers int, accs []numeric.Welford) {
	baseBlock := lo / trialBlock
	endBlock := (hi + trialBlock - 1) / trialBlock
	if workers > endBlock-baseBlock {
		workers = endBlock - baseBlock
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Contain panics to the worker: a panicking trace (or an
			// injected chaos fault) becomes a typed trial error and
			// cancels the siblings; the process — and the caller's
			// estimate path — survives.
			defer func() {
				if rec := recover(); rec != nil {
					br.fail(fmt.Errorf("%w: %v\n%s", ErrTrialPanic, rec, debug.Stack()))
				}
			}()
			var ds drawSource
			br.initDrawSource(&ds)
			// reps accumulators are per-worker, allocated once per
			// runRange: the per-trial steady state stays allocation-free.
			reps := br.reps
			accLocal := make([]numeric.Welford, reps)
			for {
				b := baseBlock + int(next.Add(1)-1)
				if b >= endBlock || br.canceled.Load() {
					return
				}
				if err := faultinject.Fire(fiTrialPoint); err != nil {
					br.fail(err)
					return
				}
				blo := b * trialBlock
				bhi := blo + trialBlock
				if bhi > hi {
					bhi = hi
				}
				for r := range accLocal {
					accLocal[r] = numeric.Welford{}
				}
				for i := blo; i < bhi; i++ {
					if br.canceled.Load() {
						return
					}
					ds.beginTrial(br.seed, i)
					accLocal[i%reps].Add(br.trial(&ds))
				}
				copy(accs[(b-baseBlock)*reps:], accLocal)
			}
		}()
	}
	wg.Wait()
}

// ComponentMTTF estimates the MTTF of a single component. Like
// SystemMTTF, it is kept as a named cross-package test helper.
func ComponentMTTF(ctx context.Context, c Component, cfg Config) (Result, error) {
	return SystemMTTF(ctx, []Component{c}, cfg)
}

// reseedTrialStream resets a reused Rand to the deterministic stream of
// one trial. Deriving every trial's stream from (seed, trial index)
// makes the estimate independent of scheduling and worker count.
//
//soferr:hotpath
func reseedTrialStream(r *xrand.Rand, seed, trial uint64) {
	r.Reseed(seed*0x9e3779b97f4a7c15 + trial + 1)
}
