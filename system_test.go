package soferr_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/soferr/soferr"
)

func mustBusyIdle(t *testing.T, period, busy float64) soferr.Trace {
	t.Helper()
	tr, err := soferr.BusyIdleTrace(period, busy)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCompareAgreesWithFlatFunctionsBitForBit is the api_redesign
// acceptance gate: every method on one compiled System must reproduce
// the legacy flat functions exactly — equal seeds, equal bits.
func TestCompareAgreesWithFlatFunctionsBitForBit(t *testing.T) {
	ctx := context.Background()
	tr1 := mustBusyIdle(t, 10, 4)
	tr2 := mustBusyIdle(t, 10, 7)
	comps := []soferr.Component{
		{Name: "a", RatePerYear: 3e6, Trace: tr1},
		{Name: "b", RatePerYear: 1e6, Trace: tr2},
		{Name: "c", RatePerYear: 5e5, Trace: tr1},
	}
	sys, err := soferr.NewSystem(comps)
	if err != nil {
		t.Fatal(err)
	}
	const (
		trials = 40000
		seed   = 42
	)
	ests, err := sys.CompareWith(ctx,
		[]soferr.EstimateOption{soferr.WithTrials(trials), soferr.WithSeed(seed)},
		soferr.AVFSOFR, soferr.MonteCarlo, soferr.SoftArch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("Compare returned %d estimates, want 3", len(ests))
	}

	// Legacy AVF+SOFR composition.
	var mttfs []float64
	for _, c := range comps {
		m, err := soferr.AVFMTTF(c.RatePerYear, c.Trace)
		if err != nil {
			t.Fatal(err)
		}
		mttfs = append(mttfs, m)
	}
	wantAVF, err := soferr.SOFRMTTF(mttfs)
	if err != nil {
		t.Fatal(err)
	}
	if ests[0].MTTF != wantAVF {
		t.Errorf("AVFSOFR: system %v != flat %v", ests[0].MTTF, wantAVF)
	}

	// Legacy Monte Carlo at identical settings.
	mc, err := soferr.MonteCarloMTTF(comps, soferr.Query{Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if ests[1].MTTF != mc.MTTF || ests[1].StdErr != mc.StdErr || ests[1].Trials != mc.Trials {
		t.Errorf("MonteCarlo: system %+v != flat %+v", ests[1], mc)
	}

	// Legacy SoftArch.
	sa, err := soferr.SoftArchMTTF(comps)
	if err != nil {
		t.Fatal(err)
	}
	if ests[2].MTTF != sa {
		t.Errorf("SoftArch: system %v != flat %v", ests[2].MTTF, sa)
	}

	// Per-method metadata.
	if ests[1].Method != soferr.MonteCarlo || ests[1].Seed != seed || ests[1].Engine != soferr.Fused {
		t.Errorf("MonteCarlo estimate metadata wrong: %+v", ests[1])
	}
	for _, e := range ests {
		if e.MTTF > 0 && !math.IsInf(e.MTTF, 1) && e.FIT <= 0 {
			t.Errorf("%v: FIT not populated: %+v", e.Method, e)
		}
	}
}

func TestSystemQueryCacheIsTransparent(t *testing.T) {
	ctx := context.Background()
	tr := mustBusyIdle(t, 10, 4)
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	opts := []soferr.EstimateOption{soferr.WithTrials(20000), soferr.WithSeed(7), soferr.WithEngine(soferr.Fused)}
	first, err := sys.MTTF(ctx, soferr.MonteCarlo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first query reported Cached")
	}
	second, err := sys.MTTF(ctx, soferr.MonteCarlo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat query not served from cache")
	}
	if second.MTTF != first.MTTF || second.StdErr != first.StdErr {
		t.Errorf("cache changed the estimate: %+v vs %+v", second, first)
	}

	// Different settings miss the cache and differ statistically.
	other, err := sys.MTTF(ctx, soferr.MonteCarlo,
		soferr.WithTrials(20000), soferr.WithSeed(8), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different seed served from cache")
	}
	if other.MTTF == first.MTTF {
		t.Error("different seed produced identical MTTF (cache key too loose?)")
	}

	// A second system starts with an empty cache: it recomputes and
	// agrees bit-for-bit.
	fresh, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	again, err := fresh.MTTF(ctx, soferr.MonteCarlo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("first query on a fresh system reported Cached")
	}
	if again.MTTF != first.MTTF {
		t.Errorf("recomputation differs from cached value: %v vs %v", again.MTTF, first.MTTF)
	}
}

// TestCompiledSystemRepeatedQuerySpeedup asserts the acceptance
// criterion directly: N repeated Monte-Carlo queries on one System must
// be at least 5x faster than N flat MonteCarloMTTF calls. The compiled
// path runs the trials once and serves repeats from the cache, so the
// true ratio approaches N; asserting 5x at N=20 leaves a wide margin
// for scheduler noise.
func TestCompiledSystemRepeatedQuerySpeedup(t *testing.T) {
	const (
		n      = 20
		trials = 20000
	)
	tr := mustBusyIdle(t, 86400, 3600)
	comps := []soferr.Component{{Name: "batch", RatePerYear: 3000, Trace: tr}}
	opt := soferr.Query{Trials: trials, Seed: 1, Engine: soferr.Fused}

	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := soferr.MonteCarloMTTF(comps, opt); err != nil {
			t.Fatal(err)
		}
	}
	flat := time.Since(start)

	sys, err := soferr.NewSystem(comps)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
			soferr.WithTrials(trials), soferr.WithSeed(1), soferr.WithEngine(soferr.Fused)); err != nil {
			t.Fatal(err)
		}
	}
	compiled := time.Since(start)

	if compiled*5 > flat {
		t.Errorf("repeated queries: compiled System took %v, flat took %v (want >=5x speedup)", compiled, flat)
	}
}

func TestNewSystemErrorPaths(t *testing.T) {
	tr := mustBusyIdle(t, 10, 4)
	if _, err := soferr.NewSystem(nil); err == nil {
		t.Error("nil component slice accepted")
	}
	if _, err := soferr.NewSystem([]soferr.Component{}); err == nil {
		t.Error("empty component slice accepted")
	}
	if _, err := soferr.NewSystem([]soferr.Component{{Name: "x", RatePerYear: 1}}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := soferr.NewSystem([]soferr.Component{{Name: "x", RatePerYear: math.NaN(), Trace: tr}}); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := soferr.NewSystem([]soferr.Component{{Name: "x", RatePerYear: -1, Trace: tr}}); err == nil {
		t.Error("negative rate accepted")
	}

	// Mismatched but commensurate periods: the merged hazard table
	// exists, so SoftArch and the distribution queries answer from it,
	// and SoftArch is the Exact engine's MTTF bit for bit.
	mixed := []soferr.Component{
		{Name: "a", RatePerYear: 10, Trace: tr},
		{Name: "b", RatePerYear: 10, Trace: mustBusyIdle(t, 20, 4)},
	}
	sys, err := soferr.NewSystem(mixed)
	if err != nil {
		t.Fatalf("mismatched periods should compile, got %v", err)
	}
	sa, err := sys.MTTF(context.Background(), soferr.SoftArch)
	if err != nil {
		t.Errorf("SoftArch on commensurate mismatched periods failed: %v", err)
	}
	ex, err := sys.MTTF(context.Background(), soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
	if err != nil {
		t.Fatal(err)
	}
	if sa.MTTF != ex.MTTF || !(sa.MTTF > 0) || math.IsInf(sa.MTTF, 1) {
		t.Errorf("SoftArch MTTF = %v, Exact = %v; want equal, finite and positive", sa.MTTF, ex.MTTF)
	}
	if r, err := sys.Reliability(context.Background(), 5); err != nil {
		t.Errorf("Reliability on commensurate mismatched periods failed: %v", err)
	} else if r <= 0 || r >= 1 {
		t.Errorf("Reliability(5) = %v on a failing system, want in (0, 1)", r)
	}
	if q, err := sys.FailureQuantile(context.Background(), 0.5); err != nil {
		t.Errorf("FailureQuantile on commensurate mismatched periods failed: %v", err)
	} else if q <= 0 || math.IsInf(q, 1) {
		t.Errorf("FailureQuantile(0.5) = %v, want finite positive", q)
	}
	if _, err := sys.MTTF(context.Background(), soferr.MonteCarlo, soferr.WithTrials(2000)); err != nil {
		t.Errorf("Monte Carlo on mismatched periods failed: %v", err)
	}

	// Incommensurate periods (the exact LCM of 10 and pi is beyond any
	// usable repetition count): the merged table does not exist, so
	// SoftArch and the distribution queries refuse with the Exact
	// engine's typed error.
	incomm := []soferr.Component{
		{Name: "a", RatePerYear: 10, Trace: tr},
		{Name: "b", RatePerYear: 10, Trace: mustBusyIdle(t, math.Pi, 1)},
	}
	isys, err := soferr.NewSystem(incomm)
	if err != nil {
		t.Fatalf("incommensurate periods should compile, got %v", err)
	}
	if _, err := isys.MTTF(context.Background(), soferr.SoftArch); !errors.Is(err, soferr.ErrExactUnavailable) {
		t.Errorf("SoftArch on incommensurate periods: err = %v, want ErrExactUnavailable", err)
	}
	if _, err := isys.Reliability(context.Background(), 5); !errors.Is(err, soferr.ErrExactUnavailable) {
		t.Errorf("Reliability on incommensurate periods: err = %v, want ErrExactUnavailable", err)
	}
	if _, err := isys.FailureQuantile(context.Background(), 0.5); !errors.Is(err, soferr.ErrExactUnavailable) {
		t.Errorf("FailureQuantile on incommensurate periods: err = %v, want ErrExactUnavailable", err)
	}

	// Unknown method.
	if _, err := sys.MTTF(context.Background(), soferr.Method(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestNonMaterializedTraceErrors(t *testing.T) {
	// A combined workload is a lazy LongLoop: legal for estimation but
	// rejected by the constructors that require Piecewise traces.
	gzip, err := soferr.SimulateBenchmark("gzip", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	swim, err := soferr.SimulateBenchmark("swim", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := soferr.CombinedWorkload(gzip.Int, swim.Int)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soferr.CombinedWorkload(combined, gzip.Int); err == nil {
		t.Error("CombinedWorkload accepted a non-materialized trace")
	}
	if _, err := soferr.ShiftTrace(combined, 10); err == nil {
		t.Error("ShiftTrace accepted a non-materialized trace")
	}
	if _, err := soferr.UnionTrace([]soferr.Component{
		{Name: "a", RatePerYear: 1, Trace: combined},
		{Name: "b", RatePerYear: 1, Trace: gzip.Int},
	}); err == nil {
		t.Error("UnionTrace accepted a non-materialized trace")
	}
	// But a single-component System over the LongLoop supports the
	// whole query surface, including the distribution queries.
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "combined", RatePerYear: 1e5, Trace: combined}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MTTF(context.Background(), soferr.SoftArch); err != nil {
		t.Errorf("SoftArch on LongLoop system: %v", err)
	}
	rel, err := sys.Reliability(context.Background(), combined.Period()/3)
	if err != nil {
		t.Fatalf("Reliability on LongLoop system: %v", err)
	}
	if rel <= 0 || rel >= 1 {
		t.Errorf("Reliability = %v, want in (0,1)", rel)
	}
}

func TestMonteCarloCancellation(t *testing.T) {
	tr := mustBusyIdle(t, 10, 4)
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled context: immediate ctx.Err, nothing cached.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithTrials(50000), soferr.WithSeed(3)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled query returned %v, want context.Canceled", err)
	}

	// Time limit expiring mid-run: DeadlineExceeded, and the estimate
	// must still be computable afterwards (no poisoned cache entry).
	_, err = sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithTrials(80_000_000), soferr.WithSeed(3), soferr.WithTimeLimit(5*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("over-budget query returned %v, want context.DeadlineExceeded", err)
	}
	est, err := sys.MTTF(context.Background(), soferr.MonteCarlo, soferr.WithTrials(5000), soferr.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if est.Cached || est.MTTF <= 0 {
		t.Errorf("post-cancellation query wrong: %+v", est)
	}
}

func TestReliabilityMatchesSurvivalClosedForm(t *testing.T) {
	ctx := context.Background()
	// Busy/idle: m(t) is piecewise linear, so S(t) = exp(-r*m(t)) has a
	// simple closed form to check against.
	const (
		period      = 10.0
		busy        = 4.0
		ratePerYear = 3e6
	)
	tr := mustBusyIdle(t, period, busy)
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: ratePerYear, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	rate := ratePerYear / (365 * 86400.0)
	exposure := func(t float64) float64 {
		k := math.Floor(t / period)
		rem := t - k*period
		return k*busy + math.Min(rem, busy)
	}
	for _, tt := range []float64{0, 1, 3.9, 4, 7, 10, 10.5, 25, 1e4} {
		got, err := sys.Reliability(ctx, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-rate * exposure(tt))
		if math.Abs(got-want) > 1e-12*want+1e-300 {
			t.Errorf("Reliability(%v) = %v, want %v", tt, got, want)
		}
	}
	if r0, _ := sys.Reliability(ctx, 0); r0 != 1 {
		t.Errorf("Reliability(0) = %v, want 1", r0)
	}
	if rInf, err := sys.Reliability(ctx, math.Inf(1)); err != nil || rInf != 0 {
		t.Errorf("Reliability(+Inf) = %v, %v; want 0 for a failing system", rInf, err)
	}
	if _, err := sys.Reliability(ctx, -1); err == nil {
		t.Error("negative time accepted")
	}

	// Multi-component system: survival functions multiply.
	tr2 := mustBusyIdle(t, period, 7)
	multi, err := soferr.NewSystem([]soferr.Component{
		{Name: "a", RatePerYear: ratePerYear, Trace: tr},
		{Name: "b", RatePerYear: 2 * ratePerYear, Trace: tr2},
	})
	if err != nil {
		t.Fatal(err)
	}
	single2, err := soferr.NewSystem([]soferr.Component{{Name: "b", RatePerYear: 2 * ratePerYear, Trace: tr2}})
	if err != nil {
		t.Fatal(err)
	}
	at := 6.0
	ra, _ := sys.Reliability(ctx, at)
	rb, _ := single2.Reliability(ctx, at)
	rm, err := multi.Reliability(ctx, at)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rm-ra*rb)/rm > 1e-9 {
		t.Errorf("multi-component Reliability %v != product %v", rm, ra*rb)
	}
}

func TestFailureQuantileInvertsReliability(t *testing.T) {
	ctx := context.Background()
	tr := mustBusyIdle(t, 10, 4)
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 3e6, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{1e-6, 0.01, 0.25, 0.5, 0.9, 0.999} {
		tq, err := sys.FailureQuantile(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := sys.Reliability(ctx, tq)
		if err != nil {
			t.Fatal(err)
		}
		// At the quantile the failure CDF equals p (the quantile lands
		// inside a vulnerable segment for these p, so no jump).
		if math.Abs((1-rel)-p) > 1e-9 {
			t.Errorf("F(FailureQuantile(%v)) = %v, want %v", p, 1-rel, p)
		}
	}
	// Quantiles are monotone in p.
	prev := -1.0
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		tq, err := sys.FailureQuantile(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if tq < prev {
			t.Errorf("quantile not monotone at p=%v: %v < %v", p, tq, prev)
		}
		prev = tq
	}
	if q1, _ := sys.FailureQuantile(ctx, 1); !math.IsInf(q1, 1) {
		t.Errorf("FailureQuantile(1) = %v, want +Inf", q1)
	}
	if _, err := sys.FailureQuantile(ctx, 1.5); err == nil {
		t.Error("out-of-range probability accepted")
	}

	// Median versus MTTF sanity: for this near-exponential regime the
	// median must sit below the mean.
	med, err := sys.FailureQuantile(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.MTTF(ctx, soferr.SoftArch)
	if err != nil {
		t.Fatal(err)
	}
	if med >= est.MTTF {
		t.Errorf("median %v >= mean %v for a sub-exponential TTF", med, est.MTTF)
	}
}

func TestNeverFailingSystem(t *testing.T) {
	ctx := context.Background()
	idle, err := soferr.PeriodicTrace(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "idle", RatePerYear: 5, Trace: idle}})
	if err != nil {
		t.Fatal(err)
	}
	// Every method — Monte-Carlo included, on every engine — reports
	// the well-typed +Inf answer for a never-failing system: no error.
	for _, m := range []soferr.Method{soferr.AVFSOFR, soferr.SoftArch, soferr.MonteCarlo} {
		est, err := sys.MTTF(ctx, m, soferr.WithTrials(100))
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(est.MTTF, 1) || est.FIT != 0 {
			t.Errorf("%v on never-failing system: %+v", m, est)
		}
		if est.StdErr != 0 || est.RelStdErr() != 0 {
			t.Errorf("%v on never-failing system has nonzero spread: %+v", m, est)
		}
	}
	for _, e := range []soferr.Engine{soferr.Fused, soferr.Exact} {
		est, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithTrials(100), soferr.WithEngine(e))
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		if !math.IsInf(est.MTTF, 1) || est.FIT != 0 || est.StdErr != 0 {
			t.Errorf("engine %v on never-failing system: %+v", e, est)
		}
	}
	if rel, _ := sys.Reliability(ctx, 1e12); rel != 1 {
		t.Errorf("Reliability = %v, want 1", rel)
	}
	if q, _ := sys.FailureQuantile(ctx, 0.5); !math.IsInf(q, 1) {
		t.Errorf("FailureQuantile = %v, want +Inf", q)
	}
}

func TestMethodNamesAndJSON(t *testing.T) {
	for _, m := range soferr.Methods() {
		back, err := soferr.MethodByName(m.String())
		if err != nil || back != m {
			t.Errorf("MethodByName(%q) = %v, %v", m.String(), back, err)
		}
	}
	if _, err := soferr.MethodByName("warp"); err == nil {
		t.Error("unknown method name accepted")
	}

	tr := mustBusyIdle(t, 10, 4)
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithTrials(2000), soferr.WithSeed(9), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"method":"montecarlo"`, `"engine":"fused"`, `"trials":2000`, `"seed":9`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("estimate JSON missing %s: %s", want, data)
		}
	}

	// Infinite MTTFs must marshal, not error.
	idle, err := soferr.PeriodicTrace(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	never, err := soferr.NewSystem([]soferr.Component{{Name: "idle", RatePerYear: 5, Trace: idle}})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := never.MTTF(context.Background(), soferr.SoftArch)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(inf)
	if err != nil {
		t.Fatalf("infinite estimate failed to marshal: %v", err)
	}
	if !strings.Contains(string(data), `"+Inf"`) {
		t.Errorf("infinite MTTF not encoded: %s", data)
	}
}

func TestSystemAccessors(t *testing.T) {
	tr := mustBusyIdle(t, 10, 4)
	comps := []soferr.Component{
		{Name: "a", RatePerYear: 2, Trace: tr},
		{Name: "b", RatePerYear: 3, Trace: tr},
	}
	sys, err := soferr.NewSystem(comps, soferr.WithName("rack-7"))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "rack-7" {
		t.Errorf("Name = %q", sys.Name())
	}
	if got := sys.RatePerYear(); got != 5 {
		t.Errorf("RatePerYear = %v, want 5", got)
	}
	cp := sys.Components()
	if len(cp) != 2 || cp[0].Name != "a" {
		t.Errorf("Components = %+v", cp)
	}
	cp[0].RatePerYear = 99 // must not alias internal state
	if sys.RatePerYear() != 5 {
		t.Error("Components() aliases internal state")
	}
}

func TestSystemConcurrentQueries(t *testing.T) {
	// A compiled System is shared state: hammer every query surface
	// from many goroutines so the race detector can vet the caches
	// (the Exact state built once, the Monte-Carlo query cache).
	tr := mustBusyIdle(t, 10, 4)
	sys, err := soferr.NewSystem([]soferr.Component{
		{Name: "a", RatePerYear: 1e6, Trace: tr},
		{Name: "b", RatePerYear: 2e6, Trace: mustBusyIdle(t, 10, 6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := sys.MTTF(ctx, soferr.MonteCarlo,
					soferr.WithTrials(2000), soferr.WithSeed(uint64(g%3))); err != nil {
					errs <- err
					return
				}
				if _, err := sys.MTTF(ctx, soferr.SoftArch); err != nil {
					errs <- err
					return
				}
				if _, err := sys.Reliability(ctx, float64(i+1)); err != nil {
					errs <- err
					return
				}
				if _, err := sys.FailureQuantile(ctx, 0.5); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFusedEngineThroughSystem: the fused engine is reachable through
// the public query surface and statistically agrees with the exact
// engine on a multi-component system.
func TestFusedEngineThroughSystem(t *testing.T) {
	ctx := context.Background()
	comps := []soferr.Component{
		{Name: "a", RatePerYear: 3e6, Trace: mustBusyIdle(t, 6, 2)},
		{Name: "b", RatePerYear: 1e6, Trace: mustBusyIdle(t, 9, 5)},
		{Name: "c", RatePerYear: 5e5, Trace: mustBusyIdle(t, 18, 11)},
	}
	sys, err := soferr.NewSystem(comps)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := sys.MTTF(ctx, soferr.MonteCarlo,
		soferr.WithTrials(60000), soferr.WithSeed(1), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	if fused.Engine != soferr.Fused {
		t.Errorf("estimate engine = %v, want fused", fused.Engine)
	}
	exact, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
	if err != nil {
		t.Fatal(err)
	}
	if diff, bound := math.Abs(fused.MTTF-exact.MTTF), 5*(fused.StdErr+exact.StdErr); diff > bound {
		t.Errorf("fused %v vs exact engine %v (|diff| %v > %v)", fused.MTTF, exact.MTTF, diff, bound)
	}
	// The deterministic SoftArch answer is exact: fused must be within
	// a few standard errors of it too.
	sa, err := sys.MTTF(ctx, soferr.SoftArch)
	if err == nil {
		if diff := math.Abs(fused.MTTF - sa.MTTF); diff > 5*fused.StdErr {
			t.Errorf("fused %v vs exact %v (|diff| %v > %v)", fused.MTTF, sa.MTTF, diff, 5*fused.StdErr)
		}
	}
	// Fused JSON round-trips with its engine name.
	data, err := json.Marshal(fused)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"fused"`) {
		t.Errorf("marshaled fused estimate lacks the engine name: %s", data)
	}
	var back soferr.Estimate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine != soferr.Fused {
		t.Errorf("round-tripped engine = %v, want fused", back.Engine)
	}
}

// TestWithTargetRelStdErr covers the adaptive query surface: the
// target is validated, recorded on the estimate, reached with fewer
// trials than the fixed default, cached transparently, and
// deterministic across worker counts.
func TestWithTargetRelStdErr(t *testing.T) {
	ctx := context.Background()
	sys, err := soferr.NewSystem([]soferr.Component{
		{Name: "a", RatePerYear: 3e6, Trace: mustBusyIdle(t, 10, 4)},
		{Name: "b", RatePerYear: 1e6, Trace: mustBusyIdle(t, 10, 7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.01
	est, err := sys.MTTF(ctx, soferr.MonteCarlo,
		soferr.WithSeed(3), soferr.WithEngine(soferr.Fused), soferr.WithTargetRelStdErr(target))
	if err != nil {
		t.Fatal(err)
	}
	if est.TargetRelStdErr != target {
		t.Errorf("estimate target = %v, want %v", est.TargetRelStdErr, target)
	}
	if est.RelStdErr() > target {
		t.Errorf("achieved RSE %v > target %v", est.RelStdErr(), target)
	}
	if est.Trials >= soferr.DefaultTrials {
		t.Errorf("adaptive run used %d trials, want fewer than the fixed default %d", est.Trials, soferr.DefaultTrials)
	}
	roundTrip(t, est)

	// Repeating the identical adaptive query hits the cache,
	// bit-identically; a different target is a different cache key.
	again, err := sys.MTTF(ctx, soferr.MonteCarlo,
		soferr.WithSeed(3), soferr.WithEngine(soferr.Fused), soferr.WithTargetRelStdErr(target))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeated adaptive query not served from cache")
	}
	again.Cached = false
	if again != est {
		t.Errorf("cached adaptive estimate differs: %+v vs %+v", again, est)
	}
	other, err := sys.MTTF(ctx, soferr.MonteCarlo,
		soferr.WithSeed(3), soferr.WithEngine(soferr.Fused), soferr.WithTargetRelStdErr(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different target served the other target's cache entry")
	}

	// Worker count never changes an adaptive estimate.
	w1, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithSeed(9),
		soferr.WithEngine(soferr.Fused), soferr.WithTargetRelStdErr(0.02), soferr.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	// A second System, because the memo key ignores Workers.
	sys2, err := soferr.NewSystem(sys.Components())
	if err != nil {
		t.Fatal(err)
	}
	w4, err := sys2.MTTF(ctx, soferr.MonteCarlo, soferr.WithSeed(9),
		soferr.WithEngine(soferr.Fused), soferr.WithTargetRelStdErr(0.02), soferr.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if w1.MTTF != w4.MTTF || w1.StdErr != w4.StdErr || w1.Trials != w4.Trials {
		t.Errorf("worker count changed adaptive estimate: %+v vs %+v", w1, w4)
	}

	// Out-of-domain targets are tagged ErrInvalidArgument.
	for _, bad := range []float64{-0.1, 1, 2, math.NaN()} {
		if _, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithTargetRelStdErr(bad)); !errors.Is(err, soferr.ErrInvalidArgument) {
			t.Errorf("target %v: err = %v, want ErrInvalidArgument", bad, err)
		}
	}
}

// userTrace is a Trace implemented outside the library: it forwards the
// full method set of the trace it wraps, as a caller's own trace type
// must, and is none of the library's trace types.
type userTrace struct{ soferr.Trace }

// TestTraceImplementedOutsideTheLibrary: a caller's own Trace runs on
// every engine and sampler. On a single component the Exact engine's
// MTTF, Reliability and FailureQuantile equal those of the trace it
// wraps bit for bit, and Fused runs under either sampler land within 6
// standard errors of that MTTF.
func TestTraceImplementedOutsideTheLibrary(t *testing.T) {
	ctx := context.Background()
	inner := mustBusyIdle(t, 3600, 1000)
	system := func(tr soferr.Trace) *soferr.System {
		sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: tr}})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	bare, own := system(inner), system(userTrace{inner})
	want, err := bare.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("exact", func(t *testing.T) {
		got, err := own.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
		if err != nil || got.MTTF != want.MTTF {
			t.Errorf("exact MTTF = %v, %v; want %v", got.MTTF, err, want.MTTF)
		}
		for _, x := range []float64{0, 20, 1800, 5.5 * 3600} {
			r, err := bare.Reliability(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := own.Reliability(ctx, x); err != nil || got != r {
				t.Errorf("Reliability(%v) = %v, %v; want %v", x, got, err, r)
			}
		}
		for _, p := range []float64{0, 0.3, 0.9} {
			q, err := bare.FailureQuantile(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := own.FailureQuantile(ctx, p); err != nil || got != q {
				t.Errorf("FailureQuantile(%v) = %v, %v; want %v", p, got, err, q)
			}
		}
	})
	for _, s := range []soferr.Sampler{soferr.PCG, soferr.Sobol} {
		t.Run("fused "+s.String(), func(t *testing.T) {
			got, err := own.MTTF(ctx, soferr.MonteCarlo, soferr.WithTrials(8192), soferr.WithSeed(3), soferr.WithSampler(s))
			if err != nil {
				t.Fatal(err)
			}
			if got.Engine != soferr.Fused || got.Sampler != s {
				t.Errorf("ran %v on %v, want fused on %v", got.Engine, got.Sampler, s)
			}
			if !(got.StdErr > 0) || math.Abs(got.MTTF-want.MTTF) > 6*got.StdErr {
				t.Errorf("MTTF = %v ± %v, exact %v: want within 6 stderr", got.MTTF, got.StdErr, want.MTTF)
			}
		})
	}
}

// TestDefaultSamplerResolvedPerQuery is the library half of the
// default-sampler table: a query naming no sampler runs Sobol when it
// is adaptive with a cap of at least 4,096 trials, PCG otherwise, and
// its Estimate records the one that ran, bit-identical to the query
// naming that sampler. The default stays a memo key of its own.
func TestDefaultSamplerResolvedPerQuery(t *testing.T) {
	ctx := context.Background()
	combined, err := soferr.Spec{Components: []soferr.ComponentSpec{
		{RatePerYear: 1e5, Trace: soferr.TraceSpec{Kind: soferr.TraceKindCombined}},
		{RatePerYear: 1e3, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 3600, BusySeconds: 1000}},
	}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	system := func(comps ...soferr.Component) *soferr.System {
		sys, err := soferr.NewSystem(comps)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := mustBusyIdle(t, 10, 4), mustBusyIdle(t, 10*math.Sqrt2, 3)
	systems := map[string]*soferr.System{
		"merged":         system(soferr.Component{Name: "a", RatePerYear: 3e6, Trace: a}, soferr.Component{Name: "b", RatePerYear: 1e6, Trace: mustBusyIdle(t, 20, 7)}),
		"incommensurate": system(soferr.Component{Name: "a", RatePerYear: 3e6, Trace: a}, soferr.Component{Name: "b", RatePerYear: 1e6, Trace: b}),
		"combined":       combined,
	}
	fixed := soferr.Query{Trials: 8192, Seed: 4}
	adaptive := soferr.Query{Seed: 4, TargetRelStdErr: 0.01}
	lowCap := soferr.Query{Trials: 4095, Seed: 4, TargetRelStdErr: 0.01}
	for _, tt := range []struct {
		system string
		q      soferr.Query
		want   soferr.Sampler
	}{
		{"merged", fixed, soferr.PCG},
		{"merged", adaptive, soferr.Sobol},
		{"merged", lowCap, soferr.PCG},
		{"incommensurate", fixed, soferr.PCG},
		{"incommensurate", adaptive, soferr.Sobol},
		{"combined", fixed, soferr.PCG},
		{"combined", adaptive, soferr.Sobol},
	} {
		sys := systems[tt.system]
		got, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithQuery(tt.q))
		if err != nil {
			t.Errorf("%s %+v: %v", tt.system, tt.q, err)
			continue
		}
		named, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithQuery(tt.q), soferr.WithSampler(tt.want))
		if err != nil {
			t.Fatal(err)
		}
		if named.Cached {
			t.Errorf("%s %+v: naming %v hit the default's memo entry", tt.system, tt.q, tt.want)
		}
		if got.Sampler != tt.want || !estimatesEqual(got, named) {
			t.Errorf("%s %+v: default answered %+v, want the %v answer %+v", tt.system, tt.q, got, tt.want, named)
		}
	}

	// The Exact engine's estimate names PCG whatever the query named.
	for _, s := range []soferr.Sampler{soferr.DefaultSampler, soferr.PCG, soferr.Sobol} {
		est, err := systems["merged"].MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact), soferr.WithSampler(s))
		if err != nil || est.Sampler != soferr.PCG {
			t.Errorf("exact with sampler %v: estimate sampler %v, err %v; want pcg", s, est.Sampler, err)
		}
	}
}

// TestAdaptiveBeatsFixedTrialsOnSPECTrace is the acceptance criterion
// on the paper's SPEC-trace profile: an adaptive 1%-target run must
// reach its target with (far) fewer trials than the fixed-200k
// default, on the fused engine.
func TestAdaptiveBeatsFixedTrialsOnSPECTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark simulation skipped in -short mode")
	}
	res, err := soferr.SimulateBenchmark("gzip", 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := soferr.NewSystem([]soferr.Component{
		{Name: "int", RatePerYear: 1e6, Trace: res.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.01
	est, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithSeed(1), soferr.WithEngine(soferr.Fused), soferr.WithTargetRelStdErr(target))
	if err != nil {
		t.Fatal(err)
	}
	if est.RelStdErr() > target {
		t.Errorf("adaptive run stopped at RSE %v > target %v", est.RelStdErr(), target)
	}
	if est.Trials >= soferr.DefaultTrials {
		t.Errorf("adaptive run used %d trials, want fewer than the fixed default %d", est.Trials, soferr.DefaultTrials)
	}
	// And it agrees with the fixed run within the combined error bars.
	fixed, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithSeed(1), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	if diff, bound := math.Abs(est.MTTF-fixed.MTTF), 5*(est.StdErr+fixed.StdErr); diff > bound {
		t.Errorf("adaptive %v vs fixed %v (|diff| %v > %v)", est.MTTF, fixed.MTTF, diff, bound)
	}
}
