package montecarlo

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/soferr/soferr/internal/analytic"
	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/softarch"
	"github.com/soferr/soferr/internal/trace"
)

func TestExactMatchesClosedForm(t *testing.T) {
	// Single busy/idle component: the exact engine must reproduce
	// Derivation 1 to near machine precision — no sampling tolerance.
	cases := []struct {
		name               string
		rate, period, busy float64
	}{
		{"tiny rateL", 1e-9, 24, 8},
		{"small rateL", 1e-3, 10, 5},
		{"moderate rateL", 0.05, 10, 5},
		{"large rateL", 0.5, 10, 2},
		{"always vulnerable", 0.01, 10, 10},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Compile([]Component{{Rate: tt.rate, Trace: busyIdle(t, tt.period, tt.busy)}})
			if err != nil {
				t.Fatal(err)
			}
			want, err := analytic.BusyIdleMTTF(tt.rate, tt.period, tt.busy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.ExactMTTF()
			if err != nil {
				t.Fatal(err)
			}
			if re := numeric.RelErr(got, want); re > 1e-12 {
				t.Errorf("ExactMTTF = %v, Derivation 1 = %v (rel err %v)", got, want, re)
			}
		})
	}
}

func TestExactMultiComponentMatchesSoftArch(t *testing.T) {
	// Equal-period heterogeneous components: the exact engine's merged
	// table and package softarch's weighted union compute the same
	// integral by different routes; they must agree to near machine
	// precision.
	comps := []Component{
		{Name: "a", Rate: 0.02, Trace: busyIdle(t, 10, 3)},
		{Name: "b", Rate: 0.01, Trace: busyIdle(t, 10, 7)},
		{Name: "c", Rate: 0.05, Trace: busyIdle(t, 10, 5)},
	}
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	sas := make([]softarch.Component, len(comps))
	for i, mc := range comps {
		sas[i] = softarch.Component{Name: mc.Name, Rate: mc.Rate, Trace: mc.Trace}
	}
	want, err := softarch.SystemMTTF(sas)
	if err != nil {
		t.Fatal(err)
	}
	if re := numeric.RelErr(got, want); re > 1e-12 {
		t.Errorf("ExactMTTF = %v, softarch = %v (rel err %v)", got, want, re)
	}
}

func TestExactCommensuratePeriods(t *testing.T) {
	// Commensurate unequal periods exercise the hyperperiod merge; the
	// result must match quadrature of the merged survival function.
	comps := []Component{
		{Name: "a", Rate: 0.03, Trace: busyIdle(t, 6, 2)},
		{Name: "b", Rate: 0.01, Trace: busyIdle(t, 8, 5)},
	}
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.NewMergedExposure(
		[]float64{0.03, 0.01},
		[]*trace.Piecewise{busyIdle(t, 6, 2), busyIdle(t, 8, 5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	integral, err := numeric.Integrate(func(x float64) float64 {
		return math.Exp(-m.CumHazard(x))
	}, 0, m.Period(), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want := integral / numeric.OneMinusExpNeg(m.Total())
	if re := numeric.RelErr(got, want); re > 1e-9 {
		t.Errorf("ExactMTTF = %v, quadrature = %v (rel err %v)", got, want, re)
	}
}

func TestExactRunIntegration(t *testing.T) {
	// Engine Exact through the normal run path: zero trials, zero
	// stderr, identical for any seed/trials/target settings, equal to
	// the direct ExactMTTF call.
	c, err := Compile([]Component{{Rate: 0.01, Trace: busyIdle(t, 10, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, cfg := range []Config{
		{Engine: Exact},
		{Engine: Exact, Trials: 7, Seed: 99, Workers: 3},
		{Engine: Exact, TargetRelStdErr: 0.5},
	} {
		res, err := c.MTTF(ctx, cfg)
		if err != nil {
			t.Fatalf("MTTF(%+v): %v", cfg, err)
		}
		if res.MTTF != want || res.StdErr != 0 || res.Trials != 0 {
			t.Errorf("MTTF(%+v) = %+v, want {MTTF: %v, StdErr: 0, Trials: 0}", cfg, res, want)
		}
	}
}

func TestExactTypedRefusals(t *testing.T) {
	// Incommensurate periods: the typed umbrella AND the underlying
	// merge refusal must both be visible to errors.Is.
	c, err := Compile([]Component{
		{Rate: 0.01, Trace: busyIdle(t, 10, 4)},
		{Rate: 0.01, Trace: busyIdle(t, math.Pi, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ExactMTTF()
	if !errors.Is(err, ErrExactUnavailable) {
		t.Errorf("incommensurate ExactMTTF err = %v, want ErrExactUnavailable", err)
	}
	if !errors.Is(err, trace.ErrIncommensurate) {
		t.Errorf("incommensurate ExactMTTF err = %v, want to wrap trace.ErrIncommensurate", err)
	}
	if _, rerr := c.ExactReliability(5); !errors.Is(rerr, ErrExactUnavailable) {
		t.Errorf("incommensurate ExactReliability err = %v", rerr)
	}
	if _, qerr := c.ExactFailureQuantile(0.5); !errors.Is(qerr, ErrExactUnavailable) {
		t.Errorf("incommensurate ExactFailureQuantile err = %v", qerr)
	}
	// The run path surfaces the same typed error.
	if _, err := c.MTTF(context.Background(), Config{Engine: Exact}); !errors.Is(err, ErrExactUnavailable) {
		t.Errorf("run-path err = %v, want ErrExactUnavailable", err)
	}

	// A lazy trace alongside another failing component cannot join a
	// merge: typed refusal, not a silent fallback.
	inner := busyIdle(t, 10, 4)
	ll, err := trace.NewLongLoop(trace.LoopPhase{Inner: inner, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile([]Component{
		{Rate: 0.01, Trace: ll},
		{Rate: 0.01, Trace: busyIdle(t, 20, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ExactMTTF(); !errors.Is(err, ErrExactUnavailable) {
		t.Errorf("lazy-mixture ExactMTTF err = %v, want ErrExactUnavailable", err)
	}
	// That refusal needs no merge, so it builds none.
	if c2.fused != nil {
		t.Error("refused lazy-mixture ExactMTTF built the Fused state")
	}
}

func TestExactReadsFusedTable(t *testing.T) {
	// A multi-component Exact query integrates the Fused state's merged
	// table, so a system queried under both engines builds it once.
	c := mustCompile(t, []Component{
		{Rate: 0.02, Trace: busyIdle(t, 6, 2)},
		{Rate: 0.01, Trace: busyIdle(t, 8, 5)},
	})
	got, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	if c.fused == nil || c.fused.merged == nil {
		t.Fatal("ExactMTTF did not build the Fused state's merged table")
	}
	m := c.fused.merged
	if want := m.SurvivalIntegral() / numeric.OneMinusExpNeg(m.Total()); got != want {
		t.Errorf("ExactMTTF = %v, want the Fused table's integral %v", got, want)
	}

	// First queries of both engines racing on a fresh system build the
	// one table between them and agree with the sequential answers.
	fused, err := c.MTTF(context.Background(), Config{Trials: 100, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustCompile(t, c.components)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				if e, err := fresh.ExactMTTF(); err != nil || e != got {
					t.Errorf("concurrent ExactMTTF = %v, %v; want %v", e, err, got)
				}
				return
			}
			if r, err := fresh.MTTF(context.Background(), Config{Trials: 100, Seed: 1, Workers: 1}); err != nil || r != fused {
				t.Errorf("concurrent Fused MTTF = %+v, %v; want %+v", r, err, fused)
			}
		}()
	}
	wg.Wait()
}

func TestExactLazySingleComponent(t *testing.T) {
	// A single lazy LongLoop needs no merge: its own survival integral
	// is the system integral. Two reps of a busy/idle loop integrate to
	// exactly the one-rep closed form.
	inner := busyIdle(t, 10, 4)
	ll, err := trace.NewLongLoop(trace.LoopPhase{Inner: inner, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 0.02
	c, err := Compile([]Component{{Rate: rate, Trace: ll}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	want, err := analytic.BusyIdleMTTF(rate, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if re := numeric.RelErr(got, want); re > 1e-12 {
		t.Errorf("lazy ExactMTTF = %v, Derivation 1 = %v (rel err %v)", got, want, re)
	}
	// The distribution queries work through the LongLoop's exposure
	// interface too.
	r, err := c.ExactReliability(7)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-rate * 4); numeric.RelErr(r, want) > 1e-12 {
		t.Errorf("lazy ExactReliability(7) = %v, want %v", r, want)
	}
	if _, err := c.ExactFailureQuantile(0.25); err != nil {
		t.Errorf("lazy ExactFailureQuantile: %v", err)
	}
}

// TestExactSingleComponentAnyTrace: one failing component needs no
// merge, so the Exact engine answers MTTF, Reliability and
// FailureQuantile on any Trace through its exposure methods. A trace
// implemented outside package trace that forwards a Piecewise's or a
// LongLoop's method set gets the same answers, bit for bit, as the
// trace it wraps.
func TestExactSingleComponentAnyTrace(t *testing.T) {
	frac, err := trace.NewPiecewise([]trace.Segment{
		{Start: 0, End: 2, Vuln: 0.5}, {Start: 2, End: 5, Vuln: 0}, {Start: 5, End: 6, Vuln: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := trace.NewLongLoop(trace.LoopPhase{Inner: busyIdle(t, 10, 4), Reps: 3}, trace.LoopPhase{Inner: frac, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 0.02
	for _, tc := range []struct {
		name string
		tr   trace.Trace
	}{
		{"busy-idle", busyIdle(t, 10, 4)},
		{"fractional", frac},
		{"long loop", ll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare := mustCompile(t, []Component{{Rate: rate, Trace: tc.tr}})
			wrapped := mustCompile(t, []Component{{Rate: rate, Trace: opaqueTrace{tc.tr}}})
			want, err := bare.ExactMTTF()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := wrapped.ExactMTTF(); err != nil || got != want {
				t.Errorf("ExactMTTF = %v, %v; want %v", got, err, want)
			}
			for _, x := range []float64{0, 1.5, 4, 7, 33.3, 1e3} {
				want, err := bare.ExactReliability(x)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := wrapped.ExactReliability(x); err != nil || got != want {
					t.Errorf("ExactReliability(%v) = %v, %v; want %v", x, got, err, want)
				}
			}
			for _, p := range []float64{0, 0.1, 0.5, 0.99} {
				want, err := bare.ExactFailureQuantile(p)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := wrapped.ExactFailureQuantile(p); err != nil || got != want {
					t.Errorf("ExactFailureQuantile(%v) = %v, %v; want %v", p, got, err, want)
				}
			}
		})
	}
}

func TestExactNeverFailing(t *testing.T) {
	// Zero AVF: the well-typed never-failing answer on every exact
	// query — +Inf MTTF through the run path included.
	idle, err := trace.NewPiecewise([]trace.Segment{{Start: 0, End: 10, Vuln: 0}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile([]Component{{Rate: 5, Trace: idle}})
	if err != nil {
		t.Fatal(err)
	}
	if mttf, err := c.ExactMTTF(); err != nil || !math.IsInf(mttf, 1) {
		t.Errorf("never-failing ExactMTTF = %v, %v; want +Inf", mttf, err)
	}
	if r, err := c.ExactReliability(1e18); err != nil || r != 1 {
		t.Errorf("never-failing ExactReliability = %v, %v; want 1", r, err)
	}
	if q, err := c.ExactFailureQuantile(0.5); err != nil || !math.IsInf(q, 1) {
		t.Errorf("never-failing ExactFailureQuantile = %v, %v; want +Inf", q, err)
	}
	res, err := c.MTTF(context.Background(), Config{Engine: Exact})
	if err != nil || !math.IsInf(res.MTTF, 1) || res.StdErr != 0 {
		t.Errorf("run-path never-failing = %+v, %v; want +Inf with zero stderr", res, err)
	}
}

func TestExactGeometricTailPrecision(t *testing.T) {
	// An almost-never-failing system: H(P) ~ 8e-16 per period. A naive
	// 1-exp(-H(P)) denominator would cancel to rounding noise; expm1
	// keeps the MTTF within 1e-12 of Derivation 1.
	const rate = 1e-16
	c, err := Compile([]Component{{Rate: rate, Trace: busyIdle(t, 24, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	want, err := analytic.BusyIdleMTTF(rate, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	if re := numeric.RelErr(got, want); re > 1e-12 {
		t.Errorf("tiny-hazard ExactMTTF = %v, Derivation 1 = %v (rel err %v)", got, want, re)
	}
	if math.IsInf(got, 1) || got <= 0 {
		t.Fatalf("tiny-hazard MTTF = %v, want large finite", got)
	}

	// The quantile target for tiny p is -log1p(-p) = p exactly at this
	// magnitude; a log(1-p) evaluation would collapse to zero and
	// return the first vulnerable instant for every tiny p.
	const p = 1e-18
	q, err := c.ExactFailureQuantile(p)
	if err != nil {
		t.Fatal(err)
	}
	// H(Q(p)) must equal p: Q(p) = k*P + invert(rem) with k = floor(p/H(P)).
	hp := rate * 8.0 // per-period hazard
	wantK := math.Floor(p / hp)
	if gotK := math.Floor(q / 24); gotK != wantK {
		t.Errorf("tiny-p quantile survived %v periods, want %v", gotK, wantK)
	}
	if q <= 0 || math.IsInf(q, 1) {
		t.Errorf("tiny-p quantile = %v, want finite positive", q)
	}
}

func TestExactReliabilityQuantileInvariants(t *testing.T) {
	// Multi-component commensurate system: R(0) = 1, R non-increasing,
	// R(+Inf) = 0, and 1 - R(Q(p)) == p wherever the quantile lands
	// inside a vulnerable span.
	c, err := Compile([]Component{
		{Rate: 0.005, Trace: busyIdle(t, 6, 2)},
		{Rate: 0.002, Trace: busyIdle(t, 8, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := c.ExactReliability(0)
	if err != nil || r0 != 1 {
		t.Errorf("R(0) = %v, %v; want exactly 1", r0, err)
	}
	prev := 1.0
	for _, x := range []float64{0.1, 1, 3, 6, 8, 24, 25, 100, 1e4, 1e8} {
		r, err := c.ExactReliability(x)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev {
			t.Errorf("R(%v) = %v > previous %v; want non-increasing", x, r, prev)
		}
		if r < 0 || r > 1 {
			t.Errorf("R(%v) = %v outside [0, 1]", x, r)
		}
		prev = r
	}
	if rInf, err := c.ExactReliability(math.Inf(1)); err != nil || rInf != 0 {
		t.Errorf("R(+Inf) = %v, %v; want 0", rInf, err)
	}
	for _, p := range []float64{1e-12, 0.01, 0.25, 0.5, 0.9, 0.999999} {
		q, err := c.ExactFailureQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.ExactReliability(q)
		if err != nil {
			t.Fatal(err)
		}
		// Right-continuity: F(Q(p)) >= p always; equality holds when
		// Q(p) falls strictly inside a vulnerable span.
		if got := 1 - r; got < p-1e-9*p-1e-15 {
			t.Errorf("F(Q(%v)) = %v < p", p, got)
		}
	}
	if q1, err := c.ExactFailureQuantile(1); err != nil || !math.IsInf(q1, 1) {
		t.Errorf("Q(1) = %v, %v; want +Inf", q1, err)
	}
	// Domain validation.
	if _, err := c.ExactReliability(-1); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := c.ExactFailureQuantile(1.5); err == nil {
		t.Error("out-of-domain probability accepted")
	}
}
