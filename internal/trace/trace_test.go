package trace

import (
	"math"
	"testing"

	"github.com/soferr/soferr/internal/numeric"
)

func mustPiecewise(t *testing.T, segs []Segment) *Piecewise {
	t.Helper()
	p, err := NewPiecewise(segs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustBusyIdle(t *testing.T, period, busy float64) *Piecewise {
	t.Helper()
	p, err := BusyIdle(period, busy)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPiecewiseValidation(t *testing.T) {
	cases := []struct {
		name string
		segs []Segment
	}{
		{"empty", nil},
		{"start not zero", []Segment{{Start: 1, End: 2, Vuln: 0}}},
		{"reversed", []Segment{{Start: 0, End: 0, Vuln: 0}}},
		{"gap", []Segment{{0, 1, 0}, {2, 3, 1}}},
		{"vuln above one", []Segment{{0, 1, 1.5}}},
		{"vuln below zero", []Segment{{0, 1, -0.1}}},
		{"vuln NaN", []Segment{{0, 1, math.NaN()}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewPiecewise(tt.segs); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNewPiecewiseMergesEqualRuns(t *testing.T) {
	p := mustPiecewise(t, []Segment{{0, 1, 1}, {1, 2, 1}, {2, 3, 0}})
	if p.NumSegments() != 2 {
		t.Errorf("NumSegments = %d, want 2", p.NumSegments())
	}
	if p.Period() != 3 {
		t.Errorf("Period = %v, want 3", p.Period())
	}
}

func TestBusyIdleAVF(t *testing.T) {
	for _, tt := range []struct{ period, busy, want float64 }{
		{10, 5, 0.5},
		{86400, 43200, 0.5},
		{7, 5, 5.0 / 7},
		{10, 0, 0},
		{10, 10, 1},
	} {
		p := mustBusyIdle(t, tt.period, tt.busy)
		if numeric.RelErr(p.AVF(), tt.want) > 1e-12 && p.AVF() != tt.want {
			t.Errorf("BusyIdle(%v,%v).AVF = %v, want %v", tt.period, tt.busy, p.AVF(), tt.want)
		}
	}
}

func TestVulnAtAndWrap(t *testing.T) {
	p := mustBusyIdle(t, 10, 4)
	for _, tt := range []struct{ t, want float64 }{
		{0, 1}, {3.9, 1}, {4, 0}, {9.99, 0},
		{10, 1}, {13.5, 1}, {14.5, 0}, // wrapped
		{100000000003, 1}, // deep wrap
	} {
		if got := p.VulnAt(tt.t); got != tt.want {
			t.Errorf("VulnAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestExposure(t *testing.T) {
	p := mustPiecewise(t, []Segment{{0, 2, 1}, {2, 6, 0}, {6, 10, 0.5}})
	for _, tt := range []struct{ x, want float64 }{
		{0, 0}, {1, 1}, {2, 2}, {4, 2}, {6, 2}, {8, 3}, {10, 4}, {11, 4},
	} {
		if got := p.Exposure(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Exposure(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if numeric.RelErr(p.AVF(), 0.4) > 1e-12 {
		t.Errorf("AVF = %v, want 0.4", p.AVF())
	}
}

// brute-force survival integral by quadrature for cross-validation.
func bruteSurvival(tr Trace, rate float64, exposureAt func(float64) float64) float64 {
	val, err := numeric.Integrate(func(s float64) float64 {
		return math.Exp(-rate * exposureAt(s))
	}, 0, tr.Period(), 1e-10)
	if err != nil {
		return math.NaN()
	}
	return val
}

func TestSurvivalIntegralMatchesQuadrature(t *testing.T) {
	p := mustPiecewise(t, []Segment{{0, 2, 1}, {2, 6, 0}, {6, 10, 0.25}})
	for _, rate := range []float64{1e-6, 0.01, 0.3, 2, 50} {
		gotI, gotE := p.SurvivalIntegral(rate)
		wantI := bruteSurvival(p, rate, p.Exposure)
		wantE := rate * p.AVF() * p.Period()
		if numeric.RelErr(gotI, wantI) > 1e-8 {
			t.Errorf("rate %v: integral = %v, quadrature = %v", rate, gotI, wantI)
		}
		if numeric.RelErr(gotE, wantE) > 1e-12 {
			t.Errorf("rate %v: exposure = %v, want %v", rate, gotE, wantE)
		}
	}
}

func TestSurvivalIntegralZeroVuln(t *testing.T) {
	p, err := Never(5)
	if err != nil {
		t.Fatal(err)
	}
	i, e := p.SurvivalIntegral(3)
	if i != 5 || e != 0 {
		t.Errorf("Never: integral %v exposure %v, want 5, 0", i, e)
	}
}

func TestSurvivalIntegralAlways(t *testing.T) {
	p, err := Always(5)
	if err != nil {
		t.Fatal(err)
	}
	// int_0^5 e^(-rate*s) ds.
	const rate = 0.7
	i, e := p.SurvivalIntegral(rate)
	want := numeric.OneMinusExpNeg(rate*5) / rate
	if numeric.RelErr(i, want) > 1e-12 {
		t.Errorf("Always: integral = %v, want %v", i, want)
	}
	if numeric.RelErr(e, rate*5) > 1e-12 {
		t.Errorf("Always: exposure = %v, want %v", e, rate*5)
	}
}

func TestFromBits(t *testing.T) {
	bits := []bool{true, true, false, false, false, true}
	p, err := FromBits(bits, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Period() != 3 {
		t.Errorf("Period = %v, want 3", p.Period())
	}
	if p.NumSegments() != 3 {
		t.Errorf("NumSegments = %d, want 3", p.NumSegments())
	}
	if numeric.RelErr(p.AVF(), 0.5) > 1e-12 {
		t.Errorf("AVF = %v, want 0.5", p.AVF())
	}
	if p.VulnAt(0.9) != 1 || p.VulnAt(1.1) != 0 || p.VulnAt(2.6) != 1 {
		t.Error("VulnAt lookups wrong")
	}
}

func TestFromLevels(t *testing.T) {
	levels := []float64{0.25, 0.25, 0.75, 1}
	p, err := FromLevels(levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSegments() != 3 {
		t.Errorf("NumSegments = %d, want 3", p.NumSegments())
	}
	want := (0.25*2 + 0.75 + 1) / 4
	if numeric.RelErr(p.AVF(), want) > 1e-12 {
		t.Errorf("AVF = %v, want %v", p.AVF(), want)
	}
}

func TestWeightedUnion(t *testing.T) {
	a := mustBusyIdle(t, 10, 5) // vuln on [0,5)
	b := mustPiecewise(t, []Segment{{0, 2, 0}, {2, 8, 1}, {8, 10, 0}})
	u, err := WeightedUnion([]float64{1, 3}, []*Piecewise{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: [0,2): 1/4; [2,5): 1/4+3/4=1; [5,8): 3/4; [8,10): 0.
	for _, tt := range []struct{ t, want float64 }{
		{1, 0.25}, {3, 1}, {6, 0.75}, {9, 0},
	} {
		if got := u.VulnAt(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("union VulnAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	wantAVF := (2*0.25 + 3*1 + 3*0.75 + 0) / 10
	if numeric.RelErr(u.AVF(), wantAVF) > 1e-12 {
		t.Errorf("union AVF = %v, want %v", u.AVF(), wantAVF)
	}
}

func TestWeightedUnionPeriodMismatch(t *testing.T) {
	a := mustBusyIdle(t, 10, 5)
	b := mustBusyIdle(t, 20, 5)
	if _, err := WeightedUnion([]float64{1, 1}, []*Piecewise{a, b}); err == nil {
		t.Error("expected period mismatch error")
	}
}

func TestWeightedUnionSingleIdentity(t *testing.T) {
	a := mustPiecewise(t, []Segment{{0, 3, 0.5}, {3, 7, 0}, {7, 9, 1}})
	u, err := WeightedUnion([]float64{42}, []*Piecewise{a})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(u.AVF(), a.AVF()) > 1e-12 {
		t.Errorf("identity union AVF %v != %v", u.AVF(), a.AVF())
	}
	for _, x := range []float64{0.1, 3.5, 8.2} {
		if u.VulnAt(x) != a.VulnAt(x) {
			t.Errorf("identity union VulnAt(%v) differs", x)
		}
	}
}

// concat joins traces back to back into one Piecewise whose period is
// the sum of the parts: the materialized reference LongLoop is checked
// against.
func concat(t *testing.T, traces ...*Piecewise) *Piecewise {
	t.Helper()
	var segs []Segment
	offset := 0.0
	for _, tr := range traces {
		for _, s := range tr.segs {
			segs = append(segs, Segment{Start: offset + s.Start, End: offset + s.End, Vuln: s.Vuln})
		}
		offset += tr.period
	}
	return mustPiecewise(t, segs)
}

func TestConcat(t *testing.T) {
	a := mustBusyIdle(t, 4, 2)
	b := mustBusyIdle(t, 6, 6)
	c := concat(t, a, b)
	if c.Period() != 10 {
		t.Errorf("Period = %v, want 10", c.Period())
	}
	wantAVF := (2.0 + 6.0) / 10
	if numeric.RelErr(c.AVF(), wantAVF) > 1e-12 {
		t.Errorf("AVF = %v, want %v", c.AVF(), wantAVF)
	}
	if c.VulnAt(1) != 1 || c.VulnAt(3) != 0 || c.VulnAt(5) != 1 || c.VulnAt(9.5) != 1 {
		t.Error("concat VulnAt wrong")
	}
}

func TestLongLoopMatchesMaterialized(t *testing.T) {
	inner := mustPiecewise(t, []Segment{{0, 1, 1}, {1, 3, 0}, {3, 4, 0.5}})
	ll, err := NewLongLoop(LoopPhase{Inner: inner, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	mat := concat(t, inner, inner, inner)
	if numeric.RelErr(ll.Period(), mat.Period()) > 1e-12 {
		t.Errorf("period %v vs %v", ll.Period(), mat.Period())
	}
	if numeric.RelErr(ll.AVF(), mat.AVF()) > 1e-12 {
		t.Errorf("AVF %v vs %v", ll.AVF(), mat.AVF())
	}
	for x := 0.05; x < 12; x += 0.37 {
		if ll.VulnAt(x) != mat.VulnAt(x) {
			t.Errorf("VulnAt(%v): %v vs %v", x, ll.VulnAt(x), mat.VulnAt(x))
		}
	}
	for _, rate := range []float64{0.001, 0.1, 1, 10} {
		li, le := ll.SurvivalIntegral(rate)
		mi, me := mat.SurvivalIntegral(rate)
		if numeric.RelErr(li, mi) > 1e-9 {
			t.Errorf("rate %v: integral %v vs %v", rate, li, mi)
		}
		if numeric.RelErr(le, me) > 1e-9 {
			t.Errorf("rate %v: exposure %v vs %v", rate, le, me)
		}
	}
}

func TestLongLoopTwoPhases(t *testing.T) {
	a := mustBusyIdle(t, 2, 1)
	b := mustBusyIdle(t, 3, 3)
	ll, err := NewLongLoop(LoopPhase{Inner: a, Reps: 2}, LoopPhase{Inner: b, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	mat := concat(t, a, a, b)
	for x := 0.05; x < 7; x += 0.23 {
		if ll.VulnAt(x) != mat.VulnAt(x) {
			t.Errorf("VulnAt(%v): %v vs %v", x, ll.VulnAt(x), mat.VulnAt(x))
		}
	}
	for _, rate := range []float64{0.01, 0.5, 5} {
		li, le := ll.SurvivalIntegral(rate)
		mi, me := mat.SurvivalIntegral(rate)
		if numeric.RelErr(li, mi) > 1e-9 || numeric.RelErr(le, me) > 1e-9 {
			t.Errorf("rate %v: (%v,%v) vs (%v,%v)", rate, li, le, mi, me)
		}
	}
}

func TestLongLoopHugeRepsFinite(t *testing.T) {
	// Twelve hours of a 1 ms benchmark loop: 4.32e7 repetitions. The
	// survival integral must stay finite and the AVF exact.
	inner := mustBusyIdle(t, 1e-3, 0.25e-3)
	reps := RepeatFor(inner, 12*3600)
	ll, err := NewLongLoop(LoopPhase{Inner: inner, Reps: reps})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(ll.AVF(), 0.25) > 1e-12 {
		t.Errorf("AVF = %v, want 0.25", ll.AVF())
	}
	i, e := ll.SurvivalIntegral(1e-6)
	if math.IsNaN(i) || math.IsInf(i, 0) || i <= 0 {
		t.Errorf("integral = %v", i)
	}
	wantE := 1e-6 * 0.25 * ll.Period()
	if numeric.RelErr(e, wantE) > 1e-9 {
		t.Errorf("exposure = %v, want %v", e, wantE)
	}
}

func TestRepeatFor(t *testing.T) {
	inner := mustBusyIdle(t, 2, 1)
	if got := RepeatFor(inner, 10); got != 5 {
		t.Errorf("RepeatFor = %d, want 5", got)
	}
	if got := RepeatFor(inner, 0.5); got != 1 {
		t.Errorf("RepeatFor small = %d, want 1", got)
	}
	if got := RepeatFor(inner, 11); got != 6 {
		t.Errorf("RepeatFor uneven = %d, want 6", got)
	}
}

func TestPeriodicValidation(t *testing.T) {
	if _, err := Periodic(0, nil); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := Periodic(10, []Interval{{5, 4}}); err == nil {
		t.Error("reversed interval should fail")
	}
	if _, err := Periodic(10, []Interval{{0, 5}, {3, 7}}); err == nil {
		t.Error("overlap should fail")
	}
	if _, err := Periodic(10, []Interval{{0, 11}}); err == nil {
		t.Error("out of range should fail")
	}
}

func TestSegmentsReturnsCopy(t *testing.T) {
	p := mustBusyIdle(t, 10, 5)
	s := p.Segments()
	s[0].Vuln = 0.123
	if p.Segments()[0].Vuln == 0.123 {
		t.Error("Segments exposed internal state")
	}
}

func TestTotalExposure(t *testing.T) {
	p := mustPiecewise(t, []Segment{{0, 2, 1}, {2, 6, 0}, {6, 10, 0.5}})
	if got := p.TotalExposure(); math.Abs(got-4) > 1e-12 {
		t.Errorf("TotalExposure = %v, want 4", got)
	}
	if math.Abs(p.TotalExposure()-p.AVF()*p.Period()) > 1e-12 {
		t.Error("TotalExposure != AVF * Period")
	}
}

func TestInvertExposureRoundTrip(t *testing.T) {
	// Exposure(InvertExposure(e)) == e for every target in [0, total):
	// the inverse must land exactly on the accumulated-exposure curve,
	// including targets inside fractional-vulnerability segments.
	p := mustPiecewise(t, []Segment{
		{0, 1, 0}, {1, 3, 0.5}, {3, 5, 0}, {5, 6, 1}, {6, 10, 0.25},
	})
	total := p.TotalExposure() // 0*1 + 0.5*2 + 0 + 1 + 0.25*4 = 3
	if math.Abs(total-3) > 1e-12 {
		t.Fatalf("total exposure = %v, want 3", total)
	}
	for e := 0.0; e < total; e += 0.01 {
		x := p.InvertExposure(e)
		if back := p.Exposure(x); math.Abs(back-e) > 1e-12 {
			t.Fatalf("Exposure(InvertExposure(%v)) = %v", e, back)
		}
	}
	// The opposite round trip holds wherever m is strictly increasing
	// (vulnerable instants); across zero-vulnerability gaps the inverse
	// collapses to the first instant with the same accumulated exposure.
	for _, x := range []float64{1.25, 2, 2.99, 5.5, 7, 9.999} {
		if got := p.InvertExposure(p.Exposure(x)); math.Abs(got-x) > 1e-9 {
			t.Errorf("InvertExposure(Exposure(%v)) = %v", x, got)
		}
	}
	// Inside masked gaps m is flat, so the (right-continuous) inverse
	// jumps forward to the next vulnerable instant: failures can only
	// land where the trace is vulnerable.
	for _, x := range []float64{0.5, 3.5, 4.999} {
		got := p.InvertExposure(p.Exposure(x))
		if got < x {
			t.Errorf("InvertExposure(Exposure(%v)) = %v, want >= %v", x, got, x)
		}
		if p.VulnAt(got) == 0 && got != p.Period() {
			t.Errorf("inverse of a gap target landed inside a masked span at %v", got)
		}
	}
}

func TestInvertExposureSegmentBoundaries(t *testing.T) {
	p := mustPiecewise(t, []Segment{
		{0, 1, 0}, {1, 3, 0.5}, {3, 5, 0}, {5, 6, 1}, {6, 10, 0.25},
	})
	cases := []struct{ e, want float64 }{
		{-1, 1},  // clamped; first vulnerable instant
		{0, 1},   // exposure starts accumulating at t=1
		{1, 5},   // boundary target skips the [3,5) masked gap
		{2, 6},   // end of the unit-vulnerability segment
		{2.5, 8}, // interior of the trailing 0.25 segment
		{3, 10},  // full exposure: end of period
		{99, 10}, // clamped above
	}
	for _, tt := range cases {
		if got := p.InvertExposure(tt.e); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("InvertExposure(%v) = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestExposureAtPeriodEdges(t *testing.T) {
	// The wrap/find edge cases at t == Period: Exposure saturates,
	// VulnAt wraps to t=0, and the inverse of the saturated exposure is
	// the period itself, not a wrapped zero.
	p := mustBusyIdle(t, 10, 4)
	if got := p.Exposure(p.Period()); math.Abs(got-p.TotalExposure()) > 1e-12 {
		t.Errorf("Exposure(Period) = %v, want %v", got, p.TotalExposure())
	}
	if got := p.VulnAt(p.Period()); got != p.VulnAt(0) {
		t.Errorf("VulnAt(Period) = %v, want VulnAt(0) = %v", got, p.VulnAt(0))
	}
	if got := p.InvertExposure(p.TotalExposure()); got != p.Period() {
		t.Errorf("InvertExposure(total) = %v, want Period %v", got, p.Period())
	}
	// A period-boundary time from deep wrapping must stay in range.
	big := 1e9 * p.Period()
	if v := p.VulnAt(big); v != p.VulnAt(0) {
		t.Errorf("VulnAt(%v) = %v, want %v", big, v, p.VulnAt(0))
	}
}
