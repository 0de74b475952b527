package montecarlo

import (
	"math"
	"testing"

	"github.com/soferr/soferr/internal/analytic"
	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

// ttfShape returns the closed-form shape of one component's failure
// time on its one-component hazard table, as the extdist experiment
// reads it.
func ttfShape(t *testing.T, rate float64, tr *trace.Piecewise) (mean, cv, ks float64) {
	t.Helper()
	m, err := trace.NewMergedExposure([]float64{rate}, []*trace.Piecewise{tr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mean, second, ks := m.TTFShape()
	return mean, math.Sqrt(second/(mean*mean) - 1), ks
}

func TestTTFShapeMeanMatchesDerivation1(t *testing.T) {
	// On busy/idle traces the shape's mean is the Derivation 1 MTTF and
	// the Exact engine's, across twelve decades of rate*L.
	for _, busy := range []float64{1, 5, 9} {
		tr := busyIdle(t, 10, busy)
		for _, rateL := range []float64{1e-9, 1e-6, 1e-3, 1, 30, 1e3} {
			rate := rateL / 10
			mean, _, _ := ttfShape(t, rate, tr)
			want, err := analytic.BusyIdleMTTF(rate, 10, busy)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := mustCompile(t, []Component{{Rate: rate, Trace: tr}}).ExactMTTF()
			if err != nil {
				t.Fatal(err)
			}
			if numeric.RelErr(mean, want) > 1e-12 || numeric.RelErr(mean, exact) > 1e-12 {
				t.Errorf("busy %v, rate*L %g: mean %v, Derivation 1 %v, ExactMTTF %v", busy, rateL, mean, want, exact)
			}
		}
	}
}

func TestTTFShapeAlwaysVulnerableIsExponential(t *testing.T) {
	// With AVF = 1 the failure time is exactly exponential: CV = 1,
	// KS = 0, and the exact median is mean*ln 2.
	tr, err := trace.Always(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{1e-7, 0.1, 5} {
		mean, cv, ks := ttfShape(t, rate, tr)
		median, err := mustCompile(t, []Component{{Rate: rate, Trace: tr}}).ExactFailureQuantile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cv-1) > 1e-12 || ks > 1e-12 || numeric.RelErr(median, mean*math.Ln2) > 1e-12 {
			t.Errorf("rate %g: CV %v, KS %v, median %v vs mean*ln2 %v", rate, cv, ks, median, mean*math.Ln2)
		}
	}
}
