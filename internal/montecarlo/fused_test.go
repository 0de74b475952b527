package montecarlo

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/soferr/soferr/internal/analytic"
	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

func TestFusedMatchesClosedForm(t *testing.T) {
	// Single component: the merged table is the component's own hazard
	// table, and the fused estimate must reproduce Derivation 1.
	cases := []struct {
		name               string
		rate, period, busy float64
	}{
		{"small rateL", 1e-3, 10, 5},
		{"moderate rateL", 0.05, 10, 5},
		{"large rateL", 0.5, 10, 2},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tr := busyIdle(t, tt.period, tt.busy)
			want, err := analytic.BusyIdleMTTF(tt.rate, tt.period, tt.busy)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ComponentMTTF(context.Background(), Component{Rate: tt.rate, Trace: tr},
				Config{Trials: 150000, Seed: 7, Engine: Fused})
			if err != nil {
				t.Fatal(err)
			}
			if numeric.RelErr(res.MTTF, want) > 0.015 {
				t.Errorf("fused = %v, closed form = %v (relerr %v)", res.MTTF, want, numeric.RelErr(res.MTTF, want))
			}
		})
	}
}

// fusedTestSystem is a heterogeneous multi-period system whose periods
// (6, 9, 12) are commensurate with hyperperiod 36: the regime the
// merged table exists for.
func fusedTestSystem(t *testing.T) []Component {
	t.Helper()
	frac, err := trace.NewPiecewise([]trace.Segment{
		{Start: 0, End: 4, Vuln: 0.3}, {Start: 4, End: 12, Vuln: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []Component{
		{Name: "a", Rate: 0.05, Trace: busyIdle(t, 6, 2)},
		{Name: "b", Rate: 0.02, Trace: busyIdle(t, 9, 5)},
		{Name: "c", Rate: 0.08, Trace: frac},
	}
}

// opaqueTrace forwards the bare trace.Trace method set of the trace it
// wraps and nothing else. It is not a *trace.Piecewise, so it stays
// outside the Fused merge like a lazy LongLoop: a Trace implemented
// outside package trace is sampled per component by inverting its
// exposure.
type opaqueTrace struct{ trace.Trace }

func TestFusedMatchesInvertedDistribution(t *testing.T) {
	// The merged table and per-component inverted sampling (the path
	// Fused degrades to) sample the same distribution through different
	// factorizations, so trial-level bit-identity is not expected; the
	// first-arrival distributions must agree. Compare means within
	// combined standard errors and the empirical CDFs by a two-sample
	// Kolmogorov-Smirnov bound.
	comps := fusedTestSystem(t)
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60000
	fused := trialTimes(t, c, Config{Trials: n, Seed: 3})
	inv := trialTimes(t, perComponent(t, comps), Config{Trials: n, Seed: 4})
	sort.Float64s(fused)
	sort.Float64s(inv)

	fm, fse := meanStdErr(fused)
	im, ise := meanStdErr(inv)
	if diff, bound := math.Abs(fm-im), 5*(fse+ise); diff > bound {
		t.Errorf("means differ: fused %v vs inverted %v (|diff| %v > %v)", fm, im, diff, bound)
	}

	// Two-sample KS distance; the alpha=0.001 critical value is
	// 1.95*sqrt((n+m)/(n*m)) ~= 0.0113 at n=m=60000.
	ks := ksTwoSample(fused, inv)
	if crit := 1.95 * math.Sqrt(2.0/float64(n)); ks > crit {
		t.Errorf("KS distance %v exceeds %v", ks, crit)
	}

	// Both must also agree with the exact softarch-free reference: the
	// naive oracle thins literal arrivals.
	sup := naiveMTTF(t, c, n, 5)
	if numeric.RelErr(fm, sup.MTTF) > 0.03 {
		t.Errorf("fused %v vs naive %v", fm, sup.MTTF)
	}
}

// meanStdErr returns the mean of xs and its iid standard error.
func meanStdErr(xs []float64) (mean, stderr float64) {
	var w numeric.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), w.StdErr()
}

// ksTwoSample returns the Kolmogorov-Smirnov distance between two
// sorted samples.
func ksTwoSample(a, b []float64) float64 {
	i, j := 0, 0
	maxD := 0.0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
		d := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b)))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

func TestFusedFallbackForNonMaterializedTraces(t *testing.T) {
	// A lazy LongLoop cannot join the merge; it must be sampled
	// per-component inside the same trial, and the estimate must agree
	// with all-per-component sampling.
	inner := busyIdle(t, 1e-3, 0.5e-3)
	ll, err := trace.NewLongLoop(trace.LoopPhase{Inner: inner, Reps: trace.RepeatFor(inner, 2.0)})
	if err != nil {
		t.Fatal(err)
	}
	comps := []Component{
		{Name: "lazy", Rate: 0.03, Trace: ll},
		{Name: "piece", Rate: 0.05, Trace: busyIdle(t, 2, 0.5)},
	}
	fused, err := SystemMTTF(context.Background(), comps, Config{Trials: 60000, Seed: 9, Engine: Fused})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := perComponent(t, comps).MTTF(context.Background(), Config{Trials: 60000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(fused.MTTF, inv.MTTF) > 0.03 {
		t.Errorf("fused %v vs inverted %v", fused.MTTF, inv.MTTF)
	}
}

func TestFusedIncommensurateFallback(t *testing.T) {
	// Incommensurate periods (1 and pi) make the merge refuse; Fused
	// must degrade to per-component inverted sampling and still match.
	comps := []Component{
		{Name: "unit", Rate: 0.1, Trace: busyIdle(t, 1, 0.4)},
		{Name: "pi", Rate: 0.07, Trace: busyIdle(t, math.Pi, 1)},
	}
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	if fs := c.fusedState(); fs.merged != nil {
		t.Fatal("incommensurate merge unexpectedly succeeded")
	}
	fused, err := c.MTTF(context.Background(), Config{Trials: 60000, Seed: 2, Engine: Fused})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := perComponent(t, comps).MTTF(context.Background(), Config{Trials: 60000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With no merged subset the Fused trial IS the per-component
	// inverted trial: identical samplers, identical draw order,
	// identical streams.
	if fused.MTTF != inv.MTTF || fused.StdErr != inv.StdErr {
		t.Errorf("degraded fused %+v != inverted %+v", fused, inv)
	}

	// The bit-identity must survive component-order shuffling too: a
	// lazy trace interleaved between the (unmergeable) materialized
	// ones must be sampled in the original component order, not
	// mergeable-last.
	inner := busyIdle(t, 1e-3, 0.5e-3)
	ll, err := trace.NewLongLoop(trace.LoopPhase{Inner: inner, Reps: trace.RepeatFor(inner, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	mixed := []Component{
		{Name: "unit", Rate: 0.1, Trace: busyIdle(t, 1, 0.4)},
		{Name: "lazy", Rate: 0.05, Trace: ll},
		{Name: "pi", Rate: 0.07, Trace: busyIdle(t, math.Pi, 1)},
	}
	cm, err := Compile(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if fs := cm.fusedState(); fs.merged != nil {
		t.Fatal("incommensurate mixed merge unexpectedly succeeded")
	}
	fusedMixed, err := cm.MTTF(context.Background(), Config{Trials: 20000, Seed: 5, Engine: Fused})
	if err != nil {
		t.Fatal(err)
	}
	invMixed, err := perComponent(t, mixed).MTTF(context.Background(), Config{Trials: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fusedMixed != invMixed {
		t.Errorf("degraded mixed-trace fused %+v != inverted %+v", fusedMixed, invMixed)
	}
}

func TestFusedDeterminismAcrossWorkerCounts(t *testing.T) {
	comps := fusedTestSystem(t)
	var results []Result
	for _, workers := range []int{1, 3, 8} {
		res, err := SystemMTTF(context.Background(), comps, Config{Trials: 30000, Seed: 42, Workers: workers, Engine: Fused})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for _, res := range results[1:] {
		if res != results[0] {
			t.Errorf("worker count changed fused result: %+v vs %+v", res, results[0])
		}
	}
}

func TestAdaptiveTargetRelStdErr(t *testing.T) {
	comps := fusedTestSystem(t)
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.01
	res, err := c.MTTF(context.Background(), Config{
		Trials: 200000, Seed: 6, Engine: Fused, Sampler: PCG, TargetRelStdErr: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelStdErr() > target {
		t.Errorf("adaptive run stopped at RSE %v > target %v", res.RelStdErr(), target)
	}
	if res.Trials >= 200000 {
		t.Errorf("adaptive run used %d trials, expected to stop before the 200000 cap", res.Trials)
	}
	if res.Trials%trialBlock != 0 {
		t.Errorf("adaptive trial count %d is not block-aligned", res.Trials)
	}

	// An unreachable target must stop at the cap, not loop forever.
	capped, err := c.MTTF(context.Background(), Config{
		Trials: 8192, Seed: 6, Engine: Fused, Sampler: PCG, TargetRelStdErr: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Trials != 8192 {
		t.Errorf("capped adaptive run used %d trials, want 8192", capped.Trials)
	}
	// The capped adaptive run covers the same trial-index prefix as a
	// fixed run of the same size: bit-identical estimates.
	fixed, err := c.MTTF(context.Background(), Config{Trials: 8192, Seed: 6, Engine: Fused})
	if err != nil {
		t.Fatal(err)
	}
	if capped.MTTF != fixed.MTTF || capped.StdErr != fixed.StdErr {
		t.Errorf("adaptive-at-cap %+v != fixed %+v", capped, fixed)
	}

	// Invalid targets are rejected.
	if _, err := c.MTTF(context.Background(), Config{Trials: 100, TargetRelStdErr: -0.5}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := c.MTTF(context.Background(), Config{Trials: 100, TargetRelStdErr: math.NaN()}); err == nil {
		t.Error("NaN target accepted")
	}
}

func TestAdaptiveDeterminismAcrossWorkerCounts(t *testing.T) {
	// The adaptive stop decision happens at deterministic round
	// boundaries, so both the chosen trial count and the estimate must
	// be bit-identical for any worker count — on the merged table and
	// on the per-component path alike.
	comps := fusedTestSystem(t)
	for name, c := range map[string]*Compiled{"merged": mustCompile(t, comps), "per-component": perComponent(t, comps)} {
		var results []Result
		for _, workers := range []int{1, 2, 7} {
			res, err := c.MTTF(context.Background(), Config{
				Trials: 100000, Seed: 11, Workers: workers, TargetRelStdErr: 0.02,
			})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		for _, res := range results[1:] {
			if res != results[0] {
				t.Errorf("%s: worker count changed adaptive result: %+v vs %+v", name, res, results[0])
			}
		}
	}
}

func TestTrialLoopDoesNotAllocate(t *testing.T) {
	// The steady-state trial loop must not allocate per trial on any
	// Fused path — merged table, per-component inversion, a merged
	// table beside a trace outside the merge: per-trial streams reuse
	// one Rand per worker. Per-run setup (block accumulators, the
	// worker goroutine) is O(1) in the trial count, so allocations for
	// a 3-block run must stay far below one per trial.
	comps := fusedTestSystem(t)
	outside := append(fusedTestSystem(t), Component{Name: "opaque", Rate: 0.05, Trace: opaqueTrace{busyIdle(t, 6, 2)}})
	ctx := context.Background()
	const trials = 3 * trialBlock
	merged := mustCompile(t, comps)
	fixed := Config{Trials: trials, Seed: 1, Workers: 1}
	for _, tc := range []struct {
		name    string
		c       *Compiled
		cfg     Config
		sampler Sampler
	}{
		{"merged", merged, fixed, PCG},
		{"per-component", perComponent(t, comps), fixed, PCG},
		{"merged beside a non-Piecewise trace", mustCompile(t, outside), fixed, PCG},
		// An adaptive run naming no sampler runs Sobol, whose setup
		// builds qmcReplicates scrambled replicates; the unreachable
		// target makes it run all three rounds.
		{"adaptive default sampler", merged, Config{Trials: trials, Seed: 1, Workers: 1, TargetRelStdErr: 1e-9}, Sobol},
	} {
		// Warm lazily built state (the fused merge) outside the loop.
		if _, err := tc.c.MTTF(ctx, Config{Trials: 16, Seed: 1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		var res Result
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if res, err = tc.c.MTTF(ctx, tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if res.Sampler != tc.sampler || res.Trials != trials {
			t.Fatalf("%s: ran %d trials on %v, want %d on %v", tc.name, res.Trials, res.Sampler, trials, tc.sampler)
		}
		// ~10 setup allocations per run (accumulator slice, goroutine,
		// closures); one alloc per trial would be >= 12288.
		if allocs > 64 {
			t.Errorf("%s: %v allocations per %d-trial run, want O(1) setup only", tc.name, allocs, trials)
		}
	}
}

// speedupSystem is the n-component system the speedup acceptance test
// (n = 64) and BenchmarkFusedTrial time: heterogeneous duty cycles on
// one shared period, so every component contributes its own segments
// to the merged table.
func speedupSystem(tb testing.TB, n int) []Component {
	comps := make([]Component, n)
	for i := range comps {
		busy := 1 + float64(i%17)
		comps[i] = Component{Rate: 1e-4 * float64(1+i%5), Trace: mustBusyIdleB(tb, 24, busy)}
	}
	return comps
}

// timeRun warms c's lazy state and caches, then times one
// single-threaded run of trials.
func timeRun(t *testing.T, c *Compiled, trials int) time.Duration {
	ctx := context.Background()
	if _, err := c.MTTF(ctx, Config{Trials: 256, Seed: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.MTTF(ctx, Config{Trials: trials, Seed: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

func TestFusedSpeedupAtN64(t *testing.T) {
	// The acceptance criterion: at 64 components the merged table's
	// one-draw trials must beat the per-component inverted loop (the
	// path Fused takes when the merge is refused) by >= 3x (the
	// measured gap is far larger; 3x leaves room for noisy CI machines).
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	comps := speedupSystem(t, 64)
	const trials = 60000
	inv := timeRun(t, perComponent(t, comps), trials)
	fused := timeRun(t, mustCompile(t, comps), trials)
	if speedup := float64(inv) / float64(fused); speedup < 3 {
		t.Errorf("fused speedup at N=%d is %.1fx (inverted %v, fused %v), want >= 3x", len(comps), speedup, inv, fused)
	}
}

func mustBusyIdleB(tb testing.TB, period, busy float64) *trace.Piecewise {
	tb.Helper()
	p, err := trace.BusyIdle(period, busy)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}
