package trace

import (
	"errors"
	"math"
	"testing"

	"github.com/soferr/soferr/internal/numeric"
)

func mergedBusyIdle(t *testing.T, period, busy float64) *Piecewise {
	t.Helper()
	p, err := BusyIdle(period, busy)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMergedExposureSingleComponentMatchesScaledExposure(t *testing.T) {
	p := mergedBusyIdle(t, 10, 4)
	const rate = 0.25
	m, err := NewMergedExposure([]float64{rate}, []*Piecewise{p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != p.Period() {
		t.Fatalf("period = %v, want %v", m.Period(), p.Period())
	}
	if got, want := m.Total(), rate*p.TotalExposure(); numeric.RelErr(got, want) > 1e-12 {
		t.Errorf("Total = %v, want %v", got, want)
	}
	for _, x := range []float64{0, 0.5, 3.999, 4, 7, 10} {
		if got, want := m.CumHazard(x), rate*p.Exposure(x); numeric.RelErr(got, want) > 1e-12 {
			t.Errorf("CumHazard(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestMergedExposureEqualPeriodsMatchesSum(t *testing.T) {
	// Equal periods take the no-repetition fast path; the merged hazard
	// must still be the rate-weighted sum of the exposures.
	traces := []*Piecewise{
		mergedBusyIdle(t, 12, 3),
		mergedBusyIdle(t, 12, 8),
	}
	frac, err := NewPiecewise([]Segment{{Start: 0, End: 6, Vuln: 0.25}, {Start: 6, End: 12, Vuln: 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, frac)
	rates := []float64{0.1, 0.03, 1.5}
	m, err := NewMergedExposure(rates, traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 12; x += 0.37 {
		want := 0.0
		for i, tr := range traces {
			want += rates[i] * tr.Exposure(x)
		}
		if got := m.CumHazard(x); numeric.RelErr(got, want) > 1e-12 {
			t.Errorf("CumHazard(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestMergedExposureCommensuratePeriods(t *testing.T) {
	// Periods 6 and 9 have hyperperiod 18: trace a repeats 3 times,
	// trace b twice, and the merged hazard is the sum of the wrapped
	// per-component hazards at every point.
	a := mergedBusyIdle(t, 6, 2)
	b := mergedBusyIdle(t, 9, 5)
	rates := []float64{0.4, 0.07}
	m, err := NewMergedExposure(rates, []*Piecewise{a, b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != 18 {
		t.Fatalf("hyperperiod = %v, want 18", m.Period())
	}
	exposureAt := func(tr *Piecewise, x float64) float64 {
		k := math.Floor(x / tr.Period())
		return k*tr.TotalExposure() + tr.Exposure(x-k*tr.Period())
	}
	for x := 0.0; x <= 18; x += 0.173 {
		want := rates[0]*exposureAt(a, x) + rates[1]*exposureAt(b, x)
		if got := m.CumHazard(x); numeric.RelErr(got, want) > 1e-9 {
			t.Errorf("CumHazard(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestMergedExposureInvertRoundTrip(t *testing.T) {
	// Property: Invert is the right-continuous generalized inverse of
	// CumHazard. For any hazard target h in [0, Total):
	//   CumHazard(Invert(h)) == h  (up to float tolerance), and
	// for any time t inside a vulnerable span,
	//   Invert(CumHazard(t)) == t.
	a := mergedBusyIdle(t, 6, 2)
	b := mergedBusyIdle(t, 9, 5)
	frac, err := NewPiecewise([]Segment{{Start: 0, End: 1, Vuln: 0}, {Start: 1, End: 3, Vuln: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMergedExposure([]float64{0.4, 0.07, 0.9}, []*Piecewise{a, b, frac}, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := m.Total()
	for i := 0; i <= 1000; i++ {
		h := total * float64(i) / 1000.5
		x := m.Invert(h)
		if x < 0 || x > m.Period() {
			t.Fatalf("Invert(%v) = %v outside [0, %v]", h, x, m.Period())
		}
		if got := m.CumHazard(x); math.Abs(got-h) > 1e-9*total {
			t.Errorf("CumHazard(Invert(%v)) = %v", h, got)
		}
	}
	// Times strictly inside vulnerable spans round-trip exactly (within
	// an ulp of the division): hazard there is strictly increasing.
	for _, x := range []float64{0.5, 1.9, 2.5, 6.5, 10.3, 13.1} {
		back := m.Invert(m.CumHazard(x))
		if math.Abs(back-x) > 1e-9*m.Period() {
			t.Errorf("Invert(CumHazard(%v)) = %v", x, back)
		}
	}
	// Edges: h below 0 clamps to the first vulnerable instant, h at or
	// beyond Total clamps to the period.
	if got := m.Invert(-1); got != m.Invert(0) {
		t.Errorf("Invert(-1) = %v, want %v", got, m.Invert(0))
	}
	if got := m.Invert(total); got != m.Period() {
		t.Errorf("Invert(Total) = %v, want Period %v", got, m.Period())
	}
	if got := m.Invert(total * 2); got != m.Period() {
		t.Errorf("Invert(2*Total) = %v, want Period %v", got, m.Period())
	}
}

func TestMergedExposureSkipsIdleSpans(t *testing.T) {
	// A hazard target landing exactly on a flat (all-idle) span maps to
	// the start of the next vulnerable segment: failures only land at
	// vulnerable instants.
	a := mergedBusyIdle(t, 10, 2) // vulnerable [0,2)
	m, err := NewMergedExposure([]float64{1}, []*Piecewise{a}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// CumHazard(2) == CumHazard(7) == total of the busy span; inverting
	// it returns the end of the busy span (right-continuous inverse,
	// clamped into the vulnerable segment).
	h := m.CumHazard(5)
	if x := m.Invert(h - 1e-12); x > 2 {
		t.Errorf("Invert just below the plateau = %v, want <= 2", x)
	}
}

func TestMergedExposureIncommensurate(t *testing.T) {
	// Periods 1 and math.Pi are commensurate as exact rationals (every
	// float64 is), but their exact LCM needs astronomically many
	// repetitions: the merge must refuse with ErrIncommensurate instead
	// of materializing it.
	a := mergedBusyIdle(t, 1, 0.5)
	b := mergedBusyIdle(t, math.Pi, 1)
	_, err := NewMergedExposure([]float64{1, 1}, []*Piecewise{a, b}, 0)
	if !errors.Is(err, ErrIncommensurate) {
		t.Fatalf("err = %v, want ErrIncommensurate", err)
	}
	// Same for periods whose ratio is a rational with a huge
	// denominator (0.1 is not exactly representable).
	c := mergedBusyIdle(t, 0.1, 0.05)
	d := mergedBusyIdle(t, 0.3, 0.1)
	if _, err := NewMergedExposure([]float64{1, 1}, []*Piecewise{c, d}, 0); err != nil {
		// 0.1 and 0.3 as float64s still have a small exact LCM (their
		// low bits match); accept either outcome but require a typed
		// error when it is one.
		if !errors.Is(err, ErrIncommensurate) && !errors.Is(err, ErrMergedTooLarge) {
			t.Fatalf("err = %v, want typed merge error", err)
		}
	}
}

func TestMergedExposureSegmentCap(t *testing.T) {
	// Commensurate periods whose merged table exceeds the cap must fail
	// with ErrMergedTooLarge (or the reps pre-check's ErrIncommensurate
	// when the repetition count alone blows the cap) — never OOM.
	a := mergedBusyIdle(t, 1, 0.5)
	b := mergedBusyIdle(t, 1024, 100)
	_, err := NewMergedExposure([]float64{1, 1}, []*Piecewise{a, b}, 64)
	if !errors.Is(err, ErrMergedTooLarge) && !errors.Is(err, ErrIncommensurate) {
		t.Fatalf("err = %v, want ErrMergedTooLarge or ErrIncommensurate", err)
	}
	// The same merge with an adequate cap succeeds: 1024 reps of a
	// 2-segment trace plus one 3-segment trace.
	m, err := NewMergedExposure([]float64{1, 1}, []*Piecewise{a, b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != 1024 {
		t.Errorf("hyperperiod = %v, want 1024", m.Period())
	}
}

func TestMergedExposureValidation(t *testing.T) {
	p := mergedBusyIdle(t, 10, 4)
	if _, err := NewMergedExposure(nil, nil, 0); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := NewMergedExposure([]float64{1, 2}, []*Piecewise{p}, 0); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewMergedExposure([]float64{math.NaN()}, []*Piecewise{p}, 0); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := NewMergedExposure([]float64{-1}, []*Piecewise{p}, 0); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewMergedExposure([]float64{1}, []*Piecewise{nil}, 0); err == nil {
		t.Error("nil trace accepted")
	}
	never, err := Never(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMergedExposure([]float64{1}, []*Piecewise{never}, 0); err == nil {
		t.Error("merge of only never-failing components accepted")
	}
	// Never-failing components alongside live ones are dropped, not
	// fatal.
	m, err := NewMergedExposure([]float64{0, 1}, []*Piecewise{p, p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Total(), p.TotalExposure(); numeric.RelErr(got, want) > 1e-12 {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestMergedSurvivalIntegralMatchesComponent(t *testing.T) {
	// One component: the merged survival integral must equal the
	// trace's own SurvivalIntegral at the component's rate, which is
	// separately validated against quadrature and Derivation 1.
	for _, tt := range []struct {
		name               string
		rate, period, busy float64
	}{
		{"small hazard", 1e-6, 24, 8},
		{"moderate hazard", 0.05, 10, 5},
		{"large hazard", 2.0, 10, 9},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tr := mergedBusyIdle(t, tt.period, tt.busy)
			m, err := NewMergedExposure([]float64{tt.rate}, []*Piecewise{tr}, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := tr.SurvivalIntegral(tt.rate)
			if got := m.SurvivalIntegral(); numeric.RelErr(got, want) > 1e-13 {
				t.Errorf("merged survival integral %v, component integral %v (rel err %v)",
					got, want, numeric.RelErr(got, want))
			}
		})
	}
}

func TestMergedSurvivalIntegralQuadrature(t *testing.T) {
	// Multi-component commensurate periods: the closed-form segment
	// walk must match adaptive quadrature of exp(-H(t)) over one
	// hyperperiod.
	a := mergedBusyIdle(t, 6, 2)
	b := mergedBusyIdle(t, 8, 5)
	c := mergedBusyIdle(t, 12, 7)
	rates := []float64{0.03, 0.01, 0.02}
	m, err := NewMergedExposure(rates, []*Piecewise{a, b, c}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := numeric.Integrate(func(x float64) float64 {
		return math.Exp(-m.CumHazard(x))
	}, 0, m.Period(), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SurvivalIntegral(); numeric.RelErr(got, want) > 1e-9 {
		t.Errorf("merged survival integral %v, quadrature %v (rel err %v)",
			got, want, numeric.RelErr(got, want))
	}
}

func TestMergedSurvivalIntegralUnderflowTail(t *testing.T) {
	// Once exp(-H(start)) underflows, later segments contribute
	// nothing; the walk must stop rather than accumulate NaN/denormal
	// noise. A hazard of 200/segment drives cumHaz past 745 after a few
	// segments.
	segs := make([]Segment, 0, 16)
	for i := 0; i < 8; i++ {
		s := float64(2 * i)
		segs = append(segs, Segment{Start: s, End: s + 1, Vuln: 1}, Segment{Start: s + 1, End: s + 2, Vuln: 0})
	}
	tr, err := NewPiecewise(segs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMergedExposure([]float64{200}, []*Piecewise{tr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.SurvivalIntegral()
	if math.IsNaN(got) || got <= 0 || got > 1.0/200*1.0001 {
		t.Errorf("survival integral %v, want ~1/rate and finite", got)
	}
	want, _ := tr.SurvivalIntegral(200)
	if numeric.RelErr(got, want) > 1e-13 {
		t.Errorf("survival integral %v, component integral %v", got, want)
	}
}
