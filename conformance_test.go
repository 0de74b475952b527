package soferr_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/softarch"
	"github.com/soferr/soferr/internal/units"
)

// samplingEngines are the Monte-Carlo engines the conformance suite
// cross-checks against the closed-form Exact engine. The paper's
// literal per-component method is checked against both engines by
// the montecarlo package's naive-oracle test.
var samplingEngines = []soferr.Engine{soferr.Fused}

// conformanceCase is one system of the multi-engine conformance table.
type conformanceCase struct {
	name  string
	comps []soferr.Component
	// exactOK: the Exact engine must answer; otherwise it must refuse
	// with ErrExactUnavailable while every sampling engine still works.
	exactOK bool
	// derivation1, when non-zero, is the independent closed-form MTTF
	// (Derivation 1 / SoftArch union) the Exact engine must match to
	// machine precision.
	derivation1 float64
	// neverFails: every engine must answer +Inf with zero stderr.
	neverFails bool
	// distributionOK: Reliability/FailureQuantile must answer (engine-
	// independent queries; false for the lazy mixture, where no exact
	// tabulation exists).
	distributionOK bool
}

func conformanceCases(t *testing.T) []conformanceCase {
	t.Helper()
	mustSys := func(period, busy float64) soferr.Trace {
		tr, err := soferr.BusyIdleTrace(period, busy)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	d1 := func(ratePerYear, period, busy float64) float64 {
		m, err := soferr.BusyIdleMTTF(ratePerYear, period, busy)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	multiInterval, err := soferr.PeriodicTrace(12, []soferr.Interval{
		{Start: 1, End: 3}, {Start: 5, End: 5.5}, {Start: 8, End: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	multiInterval10, err := soferr.PeriodicTrace(10, []soferr.Interval{
		{Start: 1, End: 3}, {Start: 5, End: 5.5}, {Start: 8, End: 9.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	levels, err := soferr.TraceFromLevels([]float64{0.8, 0.1, 0.6, 0, 0.3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := soferr.PeriodicTrace(10, nil)
	if err != nil {
		t.Fatal(err)
	}
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

	return []conformanceCase{
		{
			name:           "busy-idle single",
			comps:          []soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: mustSys(10, 4)}},
			exactOK:        true,
			derivation1:    d1(1e6, 10, 4),
			distributionOK: true,
		},
		{
			name:           "multi-interval single",
			comps:          []soferr.Component{{Name: "c", RatePerYear: 5e5, Trace: multiInterval}},
			exactOK:        true,
			distributionOK: true,
		},
		{
			name:           "fractional levels single",
			comps:          []soferr.Component{{Name: "c", RatePerYear: 8e5, Trace: levels}},
			exactOK:        true,
			distributionOK: true,
		},
		{
			name: "multi-component equal period",
			comps: []soferr.Component{
				{Name: "a", RatePerYear: 4e5, Trace: mustSys(10, 3)},
				{Name: "b", RatePerYear: 2e5, Trace: multiInterval10},
				{Name: "c", RatePerYear: 6e5, Trace: mustSys(10, 7)},
			},
			exactOK:        true,
			distributionOK: true,
		},
		{
			name: "multi-component commensurate 10 s and 12 s mix",
			comps: []soferr.Component{
				{Name: "a", RatePerYear: 4e5, Trace: mustSys(10, 3)},
				{Name: "b", RatePerYear: 2e5, Trace: multiInterval},
				{Name: "c", RatePerYear: 6e5, Trace: mustSys(10, 7)},
			},
			exactOK:        true,
			distributionOK: true,
		},
		{
			name: "commensurate unequal periods",
			comps: []soferr.Component{
				{Name: "a", RatePerYear: 3e5, Trace: mustSys(6, 2)},
				{Name: "b", RatePerYear: 1e5, Trace: mustSys(8, 5)},
				{Name: "c", RatePerYear: 2e5, Trace: mustSys(12, 9)},
			},
			exactOK:        true,
			distributionOK: true,
		},
		{
			name:           "never failing",
			comps:          []soferr.Component{{Name: "idle", RatePerYear: 1e6, Trace: idle}},
			exactOK:        true,
			neverFails:     true,
			distributionOK: true,
		},
		{
			name:           "single lazy long-loop",
			comps:          []soferr.Component{{Name: "combined", RatePerYear: 1e8, Trace: combined}},
			exactOK:        true,
			distributionOK: true,
		},
		{
			name: "mixed lazy and materialized",
			comps: []soferr.Component{
				{Name: "combined", RatePerYear: 1e8, Trace: combined},
				{Name: "piecewise", RatePerYear: 1e8, Trace: gzip.Int},
			},
			exactOK:        false,
			distributionOK: false,
		},
	}
}

// TestEngineConformance is the multi-engine conformance harness: every
// system in the table is queried through both engines, asserting
// that the Exact engine matches its closed-form reference to machine
// precision (or refuses with the typed sentinel), that every sampling
// engine lands within stated Monte-Carlo confidence bounds of the
// reference, and that the deterministic contract (zero stderr, zero
// trials, seed-free caching, Compare integration) holds end to end.
func TestEngineConformance(t *testing.T) {
	ctx := context.Background()
	const trials = 20000
	for _, tc := range conformanceCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys, err := soferr.NewSystem(tc.comps, soferr.WithName(tc.name))
			if err != nil {
				t.Fatal(err)
			}

			exactEst, exactErr := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
			if !tc.exactOK {
				if !errors.Is(exactErr, soferr.ErrExactUnavailable) {
					t.Fatalf("exact err = %v, want ErrExactUnavailable", exactErr)
				}
				// SoftArch answers from the Exact engine's state, so it
				// refuses with the same typed error.
				if _, err := sys.MTTF(ctx, soferr.SoftArch); !errors.Is(err, soferr.ErrExactUnavailable) {
					t.Errorf("SoftArch err = %v, want ErrExactUnavailable", err)
				}
			} else {
				if exactErr != nil {
					t.Fatalf("exact MTTF: %v", exactErr)
				}
				if exactEst.StdErr != 0 || exactEst.Trials != 0 || exactEst.Seed != 0 ||
					exactEst.TargetRelStdErr != 0 || exactEst.Engine != soferr.Exact {
					t.Errorf("exact estimate breaks the deterministic contract: %+v", exactEst)
				}
				if tc.neverFails {
					if !math.IsInf(exactEst.MTTF, 1) {
						t.Errorf("exact MTTF = %v, want +Inf", exactEst.MTTF)
					}
				} else if !(exactEst.MTTF > 0) || math.IsInf(exactEst.MTTF, 1) {
					t.Errorf("exact MTTF = %v, want finite positive", exactEst.MTTF)
				}
				if tc.derivation1 != 0 {
					if re := math.Abs(exactEst.MTTF-tc.derivation1) / tc.derivation1; re > 1e-12 {
						t.Errorf("exact MTTF = %v, Derivation 1 = %v (rel err %v)", exactEst.MTTF, tc.derivation1, re)
					}
				}
				// Exact is seed- and trial-free: a query with any sampling
				// options hits the same cache entry, with the options
				// normalized out of the estimate.
				cached, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact),
					soferr.WithTrials(12345), soferr.WithSeed(99), soferr.WithTargetRelStdErr(0.1))
				if err != nil {
					t.Fatal(err)
				}
				if !cached.Cached {
					t.Error("exact query with sampling options missed the seed-free cache entry")
				}
				if cached.MTTF != exactEst.MTTF || cached.Trials != 0 || cached.Seed != 0 || cached.TargetRelStdErr != 0 {
					t.Errorf("exact cache normalization broken: %+v vs %+v", cached, exactEst)
				}
				// Compare integration: the Monte-Carlo row of a method
				// comparison under the Exact engine is the exact value,
				// and the SoftArch row, which reads the same closed-form
				// state, is bit-equal to it on every system here, unequal
				// periods included.
				ests, err := sys.CompareWith(ctx, []soferr.EstimateOption{soferr.WithEngine(soferr.Exact)},
					soferr.AVFSOFR, soferr.MonteCarlo, soferr.SoftArch)
				if err != nil {
					t.Fatalf("CompareWith(exact): %v", err)
				}
				for _, est := range ests {
					if est.Method != soferr.AVFSOFR && est.MTTF != exactEst.MTTF {
						t.Errorf("CompareWith %v row = %v, exact = %v", est.Method, est.MTTF, exactEst.MTTF)
					}
				}
			}

			// Reference for the sampling engines: exact when available,
			// else the Fused estimate at an independent seed.
			ref := exactEst.MTTF
			if !tc.exactOK {
				fest, err := sys.MTTF(ctx, soferr.MonteCarlo,
					soferr.WithEngine(soferr.Fused), soferr.WithTrials(trials), soferr.WithSeed(1234567))
				if err != nil {
					t.Fatalf("fused reference: %v", err)
				}
				ref = fest.MTTF
			}

			for _, e := range samplingEngines {
				est, err := sys.MTTF(ctx, soferr.MonteCarlo,
					soferr.WithEngine(e), soferr.WithTrials(trials), soferr.WithSeed(17))
				if err != nil {
					t.Fatalf("%v MTTF: %v", e, err)
				}
				if est.Engine != e {
					t.Errorf("estimate engine = %v, want %v", est.Engine, e)
				}
				if tc.neverFails {
					if !math.IsInf(est.MTTF, 1) || est.StdErr != 0 {
						t.Errorf("%v never-failing = %+v, want +Inf with zero stderr", e, est)
					}
					continue
				}
				if est.Trials != trials || !(est.StdErr > 0) {
					t.Errorf("%v estimate lost its sampling metadata: %+v", e, est)
				}
				// 6 sigma two-sided: over this whole table a false alarm is
				// ~never, while a wrong closed form (even a 3% bias) fails
				// deterministically at these trial counts.
				if diff := math.Abs(est.MTTF - ref); diff > 6*est.StdErr {
					t.Errorf("%v MTTF = %v vs reference %v: off by %v > 6*stderr (%v)",
						e, est.MTTF, ref, diff, 6*est.StdErr)
				}
			}

			// Distribution queries are engine-independent; on systems the
			// exact tabulation covers they must satisfy the generalized-
			// inverse property, and on the lazy mixture they must fail
			// loudly rather than approximate.
			if tc.distributionOK {
				if tc.neverFails {
					rel, err := sys.Reliability(ctx, 1e12)
					if err != nil || rel != 1 {
						t.Errorf("never-failing Reliability = %v, %v; want 1", rel, err)
					}
				} else {
					checkQuantileReliabilityConsistency(t, tc.name, sys)
				}
			} else {
				if _, err := sys.Reliability(ctx, 1); err == nil {
					t.Error("Reliability on untabulatable system succeeded")
				}
			}
		})
	}
}

// TestExactMatchesDerivationOneProperty is the randomized Derivation 1
// property: on busy/idle systems the Exact engine reproduces the
// closed form to <= 1e-12 relative error; on equal-period systems it
// matches the independent SoftArch union integral; and C identical
// in-phase copies superpose exactly to one component at C x rate.
func TestExactMatchesDerivationOneProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	relErr := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	exactMTTF := func(comps []soferr.Component) float64 {
		t.Helper()
		sys, err := soferr.NewSystem(comps)
		if err != nil {
			t.Fatal(err)
		}
		est, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
		if err != nil {
			t.Fatal(err)
		}
		return est.MTTF
	}

	for i := 0; i < 60; i++ {
		period := math.Exp(rng.Float64()*10 - 3)
		rate := math.Exp(rng.Float64()*24 - 8) // errors/year across ~14 decades
		busy := period * (0.05 + 0.9*rng.Float64())

		tr, err := soferr.BusyIdleTrace(period, busy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := soferr.BusyIdleMTTF(rate, period, busy)
		if err != nil {
			t.Fatal(err)
		}
		got := exactMTTF([]soferr.Component{{Name: "c", RatePerYear: rate, Trace: tr}})
		if re := relErr(got, want); re > 1e-12 {
			t.Errorf("case %d (rate %g, period %g, busy %g): exact %v vs Derivation 1 %v (rel err %v)",
				i, rate, period, busy, got, want, re)
		}

		// C-copies identity: C components with the same trace and rate
		// superpose to a single component at C x rate.
		c := 2 + rng.Intn(4)
		copies := make([]soferr.Component, c)
		for j := range copies {
			copies[j] = soferr.Component{Name: fmt.Sprintf("copy%d", j), RatePerYear: rate, Trace: tr}
		}
		scaled := exactMTTF([]soferr.Component{{Name: "c", RatePerYear: float64(c) * rate, Trace: tr}})
		if re := relErr(exactMTTF(copies), scaled); re > 1e-12 {
			t.Errorf("case %d: %d-copies MTTF differs from %dx-rate MTTF (rel err %v)", i, c, c, re)
		}

		// Equal-period heterogeneous system vs the independent SoftArch
		// union-integral implementation (package softarch, which takes
		// per-second rates).
		tr2, err := soferr.BusyIdleTrace(period, period*(0.1+0.8*rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		comps := []soferr.Component{
			{Name: "a", RatePerYear: rate, Trace: tr},
			{Name: "b", RatePerYear: rate * (0.1 + rng.Float64()), Trace: tr2},
		}
		sas := make([]softarch.Component, len(comps))
		for j, c := range comps {
			sas[j] = softarch.Component{Name: c.Name, Rate: units.PerYearToPerSecond(c.RatePerYear), Trace: c.Trace}
		}
		want2, err := softarch.SystemMTTF(sas)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(exactMTTF(comps), want2); re > 1e-12 {
			t.Errorf("case %d: exact vs SoftArch union on equal periods (rel err %v)", i, re)
		}
	}
}

// TestExactMetamorphic covers the metamorphic relations of the exact
// integrator: rate scaling on always-vulnerable traces, monotone
// reliability from R(0) = 1, and quantile/reliability inversion on the
// merged-table path (commensurate unequal periods).
func TestExactMetamorphic(t *testing.T) {
	ctx := context.Background()

	// Always-vulnerable: failures are a homogeneous Poisson process, so
	// MTTF = 1/rate exactly and MTTF(k*rate) = MTTF(rate)/k.
	alwaysMTTF := func(ratePerYear float64) float64 {
		t.Helper()
		tr, err := soferr.BusyIdleTrace(10, 10)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: ratePerYear, Trace: tr}})
		if err != nil {
			t.Fatal(err)
		}
		est, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
		if err != nil {
			t.Fatal(err)
		}
		return est.MTTF
	}
	const base = 1e4
	m1 := alwaysMTTF(base)
	if want := 1 / units.PerYearToPerSecond(base); math.Abs(m1-want)/want > 1e-12 {
		t.Errorf("always-vulnerable MTTF = %v, want 1/rate = %v", m1, want)
	}
	for _, k := range []float64{2, 10, 1e6} {
		mk := alwaysMTTF(base * k)
		if re := math.Abs(mk-m1/k) / (m1 / k); re > 1e-12 {
			t.Errorf("MTTF(%g*rate) = %v, want MTTF/k = %v (rel err %v)", k, mk, m1/k, re)
		}
	}

	// Reliability through the merged-table (commensurate unequal
	// periods) path: R(0) = 1 exactly, monotone non-increasing, in
	// [0, 1] everywhere, including across hyperperiod boundaries.
	mk := func(period, busy float64) soferr.Trace {
		tr, err := soferr.BusyIdleTrace(period, busy)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	sys, err := soferr.NewSystem([]soferr.Component{
		{Name: "a", RatePerYear: 2e5, Trace: mk(6, 2)},
		{Name: "b", RatePerYear: 1e5, Trace: mk(8, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := sys.Reliability(ctx, 0)
	if err != nil || r0 != 1 {
		t.Fatalf("R(0) = %v, %v; want exactly 1", r0, err)
	}
	prev := 1.0
	for x := 0.5; x < 200; x *= 1.7 {
		r, err := sys.Reliability(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev || r < 0 || r > 1 {
			t.Errorf("R(%v) = %v (prev %v): not monotone in [0, 1]", x, r, prev)
		}
		prev = r
	}

	// 1 - R(Q(p)) == p on the same merged-table path.
	checkQuantileReliabilityConsistency(t, "commensurate metamorphic", sys)
}

// TestExactSpecTraceSpeedup pins the exact engine's payoff: on the SPEC
// gzip trace profile, an exact query on tabulated state is >= 100x
// faster than one adaptive Fused run at a 1% relative-stderr target (in
// practice it is >1000x: nanoseconds versus milliseconds, since every
// adaptive query re-runs ~16k trials while exact reads the closed form
// both engines' shared table implies).
func TestExactSpecTraceSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-time comparison skipped in -short")
	}
	simRes, err := soferr.SimulateBenchmark("gzip", 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := montecarlo.Compile([]montecarlo.Component{{
		Name: "int", Rate: units.PerYearToPerSecond(1e6), Trace: simRes.Int,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfgExact := montecarlo.Config{Engine: montecarlo.Exact}
	cfgAdaptive := montecarlo.Config{Engine: montecarlo.Fused, TargetRelStdErr: 0.01, Workers: 1}

	// Warm both paths: the exact tabulation and the fused state build
	// are one-time costs shared with the sampling engines.
	exact, err := compiled.MTTF(ctx, cfgExact)
	if err != nil {
		t.Fatal(err)
	}
	cfgAdaptive.Seed = 1
	ad, err := compiled.MTTF(ctx, cfgAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	if gap := math.Abs(ad.MTTF-exact.MTTF) / exact.MTTF; gap > 5*0.01 {
		t.Fatalf("adaptive MTTF %v vs exact %v: rel gap %v", ad.MTTF, exact.MTTF, gap)
	}

	const exactIters = 200000
	start := time.Now()
	for i := 0; i < exactIters; i++ {
		if _, err := compiled.MTTF(ctx, cfgExact); err != nil {
			t.Fatal(err)
		}
	}
	exactNs := float64(time.Since(start).Nanoseconds()) / exactIters

	const adIters = 5
	start = time.Now()
	for i := 0; i < adIters; i++ {
		cfgAdaptive.Seed = uint64(i + 1)
		if _, err := compiled.MTTF(ctx, cfgAdaptive); err != nil {
			t.Fatal(err)
		}
	}
	adNs := float64(time.Since(start).Nanoseconds()) / adIters

	speedup := adNs / exactNs
	t.Logf("exact query %.1f ns, adaptive fused %.0f ns, speedup %.0fx", exactNs, adNs, speedup)
	if speedup < 100 {
		t.Errorf("exact query speedup = %.1fx, want >= 100x (exact %.1f ns, adaptive %.0f ns)",
			speedup, exactNs, adNs)
	}
}
