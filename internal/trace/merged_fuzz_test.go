package trace

import (
	"errors"
	"math"
	"testing"

	"github.com/soferr/soferr/internal/numeric"
)

// FuzzMergedExposure builds two busy/idle components from fuzzed
// parameters and merges them: NewMergedExposure must either return a
// branchable typed error (ErrIncommensurate, ErrMergedTooLarge, or the
// no-failure sentinel) or a table satisfying the inversion round-trip
// the Fused engine relies on and the bounds on its closed-form TTF
// shape.
func FuzzMergedExposure(f *testing.F) {
	f.Add(1.0, 0.5, 1.0, 0.25, 3.0, 7.0, 0.5)
	f.Add(1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 0.0)
	f.Add(86400.0, 28800.0, 604800.0, 432000.0, 1e-8, 2e-8, 0.9)
	f.Add(0.3, 0.1, 0.7, 0.2, 1.0, 1.0, 0.1)
	f.Add(1e-6, 5e-7, 3.0, 1.5, 100.0, 1.0, 1.0)
	f.Add(2.0, 1.0, 2.0, 0.0, 5.0, 5.0, 0.25)
	f.Fuzz(func(t *testing.T, p1, b1, p2, b2, r1, r2, frac float64) {
		// Bound the domain to what callers can reach: the engines only
		// merge validated components with finite non-negative rates, and
		// gigantic rate x period products overflow float64 hazard sums
		// by design.
		for _, v := range []float64{p1, b1, p2, b2, r1, r2, frac} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if r1 < 0 || r2 < 0 || r1 > 1e12 || r2 > 1e12 || p1 > 1e9 || p2 > 1e9 {
			t.Skip()
		}
		tr1, err := BusyIdle(p1, b1)
		if err != nil {
			t.Skip()
		}
		tr2, err := BusyIdle(p2, b2)
		if err != nil {
			t.Skip()
		}
		m, err := NewMergedExposure([]float64{r1, r2}, []*Piecewise{tr1, tr2}, 1<<16)
		if err != nil {
			if !errors.Is(err, ErrIncommensurate) && !errors.Is(err, ErrMergedTooLarge) &&
				!errors.Is(err, errMergedNoFailure) {
				t.Fatalf("NewMergedExposure returned an untyped error: %v", err)
			}
			return
		}

		total := m.Total()
		if !(total > 0) || math.IsInf(total, 0) {
			t.Fatalf("merged table has unusable per-period hazard %v", total)
		}
		if m.Period() <= 0 {
			t.Fatalf("merged table has unusable period %v", m.Period())
		}

		// Inversion round-trip at a fuzzed hazard level in [0, Total].
		h := math.Mod(math.Abs(frac), 1) * total
		x := m.Invert(h)
		if x < 0 || x > m.Period() || math.IsNaN(x) {
			t.Fatalf("Invert(%v) = %v outside [0, %v]", h, x, m.Period())
		}
		if got := m.CumHazard(x); math.Abs(got-h) > 1e-9*total {
			t.Fatalf("CumHazard(Invert(%v)) = %v, want %v (period %v, segments %d)",
				h, got, h, m.Period(), m.NumSegments())
		}

		// Boundary contracts the sampler depends on.
		if got := m.CumHazard(0); got != 0 {
			t.Fatalf("CumHazard(0) = %v, want 0", got)
		}
		if got := m.Invert(total); got != m.Period() {
			t.Fatalf("Invert(Total) = %v, want Period %v", got, m.Period())
		}

		// The closed-form TTF shape: its mean is the Exact MTTF's
		// quotient, its second moment bounds the squared mean, and its
		// KS distance is a distance that no probe of the two survival
		// functions exceeds (beyond rounding).
		mean, second, ks := m.TTFShape()
		if want := m.SurvivalIntegral() / numeric.OneMinusExpNeg(total); numeric.RelErr(mean, want) > 1e-12 {
			t.Fatalf("TTFShape mean = %v, want SurvivalIntegral/(1-e^-Total) = %v", mean, want)
		}
		if second < mean*mean*(1-1e-12) {
			t.Fatalf("TTFShape E[T^2] = %v below mean^2 = %v", second, mean*mean)
		}
		if !(ks >= 0 && ks <= 1) {
			t.Fatalf("TTFShape KS = %v outside [0, 1]", ks)
		}
		for _, k := range []float64{0, 1, math.Floor(1 / total)} {
			probe := math.Abs(numeric.ExpNeg((k*m.Period()+x)/mean) - numeric.ExpNeg(k*total+m.CumHazard(x)))
			if probe > ks+1e-12 {
				t.Fatalf("KS %v below the probe %v at t = %v*P + %v", ks, probe, k, x)
			}
		}
	})
}
