package trace

import (
	"fmt"
	"math"
	"testing"

	"github.com/soferr/soferr/internal/numeric"
)

// shapeTables returns the busy/idle, 2- and 3-component tables the
// TTFShape tests run on, each rescaled to the per-period hazard hp.
func shapeTables(t *testing.T, hp float64) map[string]*MergedExposure {
	t.Helper()
	a := mergedBusyIdle(t, 6, 2)
	b := mergedBusyIdle(t, 8, 5)
	c := mergedBusyIdle(t, 12, 7)
	systems := map[string]struct {
		rates  []float64
		traces []*Piecewise
	}{
		"busy-idle":   {[]float64{1}, []*Piecewise{mergedBusyIdle(t, 10, 8)}},
		"2-component": {[]float64{2, 1}, []*Piecewise{a, b}},
		"3-component": {[]float64{3, 1, 2}, []*Piecewise{a, b, c}},
	}
	out := make(map[string]*MergedExposure, len(systems))
	for name, sys := range systems {
		m, err := NewMergedExposure(sys.rates, sys.traces, 0)
		if err != nil {
			t.Fatal(err)
		}
		scale := hp / m.Total()
		rates := make([]float64, len(sys.rates))
		for i, r := range sys.rates {
			rates[i] = r * scale
		}
		if m, err = NewMergedExposure(rates, sys.traces, 0); err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
}

// survivalAt returns e^(-H(k*P + s)) for s in [0, P].
func survivalAt(m *MergedExposure, k, s float64) float64 {
	return numeric.ExpNeg(k*m.Total() + m.CumHazard(s))
}

func TestTTFShapeSecondMomentMatchesQuadrature(t *testing.T) {
	// E[T^2] = 2*int_0^inf t*R(t) dt by adaptive quadrature on every
	// constant-hazard piece of every hyperperiod until R is below 1e-18.
	for _, hp := range []float64{0.1, 1, 30} {
		t.Run(fmt.Sprintf("hp=%g", hp), func(t *testing.T) {
			for name, m := range shapeTables(t, hp) {
				t.Run(name, func(t *testing.T) {
					var sum numeric.KahanSum
					for k := 0.0; numeric.ExpNeg(k*m.Total()) > 1e-18; k++ {
						for i := range m.haz {
							v, err := numeric.Integrate(func(s float64) float64 {
								return (k*m.period + s) * survivalAt(m, k, s)
							}, m.starts[i], m.starts[i+1], 1e-12)
							if err != nil {
								t.Fatal(err)
							}
							sum.Add(v)
						}
					}
					_, second, _ := m.TTFShape()
					if want := 2 * sum.Sum(); numeric.RelErr(second, want) > 1e-9 {
						t.Errorf("E[T^2] = %v, quadrature %v (rel err %v)",
							second, want, numeric.RelErr(second, want))
					}
				})
			}
		})
	}
}

func TestTTFShapeKSMatchesScan(t *testing.T) {
	// A dense scan of |e^(-t/mean) - R(t)| over t = k*P + s never exceeds
	// the closed-form supremum, and falls short of it by at most the
	// scan's resolution: the difference is Lipschitz with constant
	// 1/mean + max hazard rate, every integer k is scanned, and every s
	// lies within half a grid step of the grid. Past t both exponentials
	// are below max(e^(-t/mean), R(t)), so the scan stops once that bound
	// drops under what it has already found. Between them the shapes
	// and hazards put the supremum at every kind of candidate: a segment
	// start in the first period, one in a later period (busy/idle at
	// H(P) = 3), and an in-segment stationary point (H(P) = 30).
	for _, hp := range []float64{1e-4, 1e-2, 1, 3, 30} {
		t.Run(fmt.Sprintf("hp=%g", hp), func(t *testing.T) {
			for name, m := range shapeTables(t, hp) {
				t.Run(name, func(t *testing.T) {
					mean, _, ks := m.TTFShape()
					lip := 1 / mean
					for _, h := range m.haz {
						lip = math.Max(lip, 1/mean+h)
					}
					n := int(math.Max(64, math.Ceil(lip*m.period/1e-4)))
					step := m.period / float64(n)
					hs := make([]float64, n)
					for j := range hs {
						hs[j] = m.CumHazard(float64(j) * step)
					}
					scan := 0.0
					for k := 0.0; ; k++ {
						for j, h := range hs {
							s := float64(j) * step
							d := math.Abs(numeric.ExpNeg((k*m.period+s)/mean) - numeric.ExpNeg(k*m.Total()+h))
							scan = math.Max(scan, d)
						}
						next := k + 1
						if bound := math.Max(numeric.ExpNeg(next*m.period/mean), numeric.ExpNeg(next*m.Total())); bound < scan || bound < 1e-17 {
							break
						}
					}
					if res := lip * step / 2; ks < scan-1e-12 || ks > scan+res+1e-12 {
						t.Errorf("KS %v, scan %v (resolution %v)", ks, scan, res)
					}
				})
			}
		})
	}
}

func TestTTFShapeMaskedBusyIdle(t *testing.T) {
	// A 10 s loop busy for its first 5 s. At rate*busy = 1 a sizable
	// fraction of failures survives the first busy window, so the TTF
	// density has holes during idle spans that no exponential can match
	// (the distributional fact behind the paper's SOFR critique, Section
	// 3.2). At rate*busy -> 0 the masked TTF tends to the exponential of
	// rate lambda*AVF (Section 3.2.1).
	tr := mergedBusyIdle(t, 10, 5)
	shape := func(rate float64) (cv, ks float64) {
		m, err := NewMergedExposure([]float64{rate}, []*Piecewise{tr}, 0)
		if err != nil {
			t.Fatal(err)
		}
		mean, second, ks := m.TTFShape()
		return math.Sqrt(second/(mean*mean) - 1), ks
	}
	if _, ks := shape(0.2); ks < 0.04 {
		t.Errorf("KS at rate*busy = 1 is %v; the masked TTF should be visibly non-exponential", ks)
	}
	if cv, ks := shape(1e-3); math.Abs(cv-1) > 0.02 || ks > 0.01 {
		t.Errorf("at rate*busy = 5e-3: CV %v, KS %v; want ~1 and ~0", cv, ks)
	}
}

// sameShape fails t unless the two tables give the same mean and E[T^2]
// within 1e-12 relative and the same KS within 1e-12.
func sameShape(t *testing.T, got, want *MergedExposure) {
	t.Helper()
	gm, gs, gk := got.TTFShape()
	wm, ws, wk := want.TTFShape()
	if numeric.RelErr(gm, wm) > 1e-12 || numeric.RelErr(gs, ws) > 1e-12 || math.Abs(gk-wk) > 1e-12 {
		t.Errorf("TTFShape = (%v, %v, %v), want (%v, %v, %v)", gm, gs, gk, wm, ws, wk)
	}
}

func TestTTFShapeIgnoresPeriodRepetition(t *testing.T) {
	// A busy/idle loop written out twice over a doubled period is the
	// same trace, so the fold over periods and the KS candidates at
	// floor/ceil(k*) must give the same shape at either period. At rate
	// 0.375 (H(P) = 3) the KS peak is the busy start of the second
	// period: a floor/ceil(k*) candidate on the 10 s table, a k = 0
	// segment start on the 20 s one.
	once := mergedBusyIdle(t, 10, 8)
	twice, err := NewPiecewise([]Segment{
		{Start: 0, End: 8, Vuln: 1}, {Start: 8, End: 10, Vuln: 0},
		{Start: 10, End: 18, Vuln: 1}, {Start: 18, End: 20, Vuln: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{1e-4, 0.05, 0.375, 4} {
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			a, err := NewMergedExposure([]float64{rate}, []*Piecewise{once}, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewMergedExposure([]float64{rate}, []*Piecewise{twice}, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameShape(t, b, a)
		})
	}
}

func TestTTFShapeSplitRate(t *testing.T) {
	// Two components on the same trace superpose into one at the summed
	// rate, so splitting the rate must not move the shape.
	tr := mergedBusyIdle(t, 10, 3)
	for _, rate := range []float64{1e-4, 0.1, 1, 10} {
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			one, err := NewMergedExposure([]float64{rate}, []*Piecewise{tr}, 0)
			if err != nil {
				t.Fatal(err)
			}
			split, err := NewMergedExposure([]float64{rate / 4, 3 * rate / 4}, []*Piecewise{tr, tr}, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameShape(t, split, one)
		})
	}
}

func TestTTFShapeNeverFailingTable(t *testing.T) {
	// A per-period hazard that underflowed to zero never fails.
	m := &MergedExposure{period: 1, starts: []float64{0, 1}, haz: []float64{0}, cumHaz: []float64{0, 0}}
	mean, second, ks := m.TTFShape()
	if !math.IsInf(mean, 1) || !math.IsInf(second, 1) || ks != 0 {
		t.Errorf("TTFShape = (%v, %v, %v), want (+Inf, +Inf, 0)", mean, second, ks)
	}
}

func TestPhi1Continuity(t *testing.T) {
	// The series below 1e-2 and the closed form above it agree at the
	// switch, and both match the x -> 0 limit 1/2.
	below, above := phi1(math.Nextafter(1e-2, 0)), phi1(1e-2)
	if numeric.RelErr(below, above) > 1e-13 {
		t.Errorf("phi1 jumps at the series switch: %v vs %v", below, above)
	}
	if got := phi1(0); got != 0.5 {
		t.Errorf("phi1(0) = %v, want 1/2", got)
	}
	// phi1(1) = 1 - 2/e.
	if got, want := phi1(1), 1-2/math.E; numeric.RelErr(got, want) > 1e-15 {
		t.Errorf("phi1(1) = %v, want %v", got, want)
	}
}
