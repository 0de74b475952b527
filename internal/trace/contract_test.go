package trace

import (
	"math"
	"testing"

	"github.com/soferr/soferr/internal/numeric"
)

// TestTraceContract holds every trace kind the package builds to the
// Trace interface's documented method set, through the interface
// alone: the estimators read a trace only through its cumulative
// exposure m(t) (the AVF step, the survival integral, the first
// unmasked arrival), so each implementation must tabulate m as the
// integral of VulnAt and invert it from the right.
func TestTraceContract(t *testing.T) {
	piece := func(p *Piecewise, err error) *Piecewise {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bits := piece(FromBits([]bool{true, false, false, true, true, false, true, false}, 0.5))
	levels := piece(FromLevels([]float64{0.25, 0.25, 0, 1, 0.5, 0, 0, 0.75}, 0.5))
	loop, err := NewLongLoop(
		LoopPhase{Inner: piece(BusyIdle(3, 1)), Reps: 4},
		LoopPhase{Inner: piece(Never(2)), Reps: 2},
		LoopPhase{Inner: levels, Reps: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   Trace
	}{
		{"busy-idle", piece(BusyIdle(10, 4))},
		{"periodic", piece(Periodic(8, []Interval{{Start: 1, End: 2}, {Start: 3.5, End: 6}}))},
		{"always", piece(Always(3))},
		{"never", piece(Never(3))},
		{"from-bits", bits},
		{"from-levels", levels},
		{"weighted-union", piece(WeightedUnion([]float64{0.7, 0.3}, []*Piecewise{bits, levels}))},
		{"coarsened", piece(Coarsen(levels, 3))},
		{"shifted across the period", piece(Shift(piece(BusyIdle(10, 4)), 7.5))},
		{"long loop with an idle phase", loop},
	} {
		t.Run(tc.name, func(t *testing.T) { checkTraceContract(t, tc.tr) })
	}
}

// checkTraceContract checks one trace against the Trace interface's
// method docs.
func checkTraceContract(t *testing.T, tr Trace) {
	period, total := tr.Period(), tr.TotalExposure()
	if !(period > 0) || math.IsInf(period, 0) {
		t.Fatalf("Period = %v, want finite positive", period)
	}
	if avf := tr.AVF(); avf < 0 || avf > 1 || numeric.RelErr(total, avf*period) > 1e-12 {
		t.Fatalf("TotalExposure = %v, AVF = %v, Period = %v: want AVF in [0,1] and TotalExposure = AVF x Period", total, avf, period)
	}

	// Exposure: 0 at or below 0, TotalExposure at or beyond Period.
	for _, x := range []float64{-1, 0} {
		if got := tr.Exposure(x); got != 0 {
			t.Errorf("Exposure(%v) = %v, want 0", x, got)
		}
	}
	for _, x := range []float64{period, 2 * period} {
		if got := tr.Exposure(x); got != total {
			t.Errorf("Exposure(%v) = %v, want TotalExposure %v", x, got, total)
		}
	}

	// m is the integral of VulnAt: a probability, so m rises by at most
	// the step over any step, never falls, and rises at the rate VulnAt
	// wherever VulnAt is constant across the step. VulnAt wraps modulo
	// Period. Grid points sit off the traces' breakpoints.
	const n = 1000
	h := period * 1e-7
	slack := 1e-12 * math.Max(total, 1)
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.37) * period / n
		v := tr.VulnAt(x)
		if v < 0 || v > 1 {
			t.Fatalf("VulnAt(%v) = %v, want a probability", x, v)
		}
		for _, k := range []float64{1, 3} {
			if got := tr.VulnAt(x + k*period); got != v {
				t.Fatalf("VulnAt(%v + %v periods) = %v, want VulnAt(%v) = %v", x, k, got, x, v)
			}
		}
		m0, m1 := tr.Exposure(x), tr.Exposure(x+h)
		if m1 < m0-slack || m1-m0 > h+slack {
			t.Fatalf("Exposure over [%v, %v] rises by %v, want within [0, %v]", x, x+h, m1-m0, h)
		}
		if tr.VulnAt(x+h) == v {
			if slope := (m1 - m0) / h; math.Abs(slope-v) > 1e-6 {
				t.Fatalf("Exposure slope at %v = %v, want VulnAt = %v", x, slope, v)
			}
		}
	}

	// InvertExposure is inf{x : m(x) > e}: m at the answer is e, m
	// rises beyond e right after it (so a target on a flat run maps to
	// the next vulnerable instant, not into the run), the answer never
	// decreases in e, and targets at or beyond TotalExposure clamp to
	// Period.
	for _, e := range []float64{total, 2*total + 1} {
		if got := tr.InvertExposure(e); got != period {
			t.Errorf("InvertExposure(%v) = %v, want Period %v", e, got, period)
		}
	}
	if total > 0 {
		prev := 0.0
		for i := 0; i < n; i++ {
			e := float64(i) * total / n
			x := tr.InvertExposure(e)
			if x < prev || x > period {
				t.Fatalf("InvertExposure(%v) = %v, want in [%v, %v]", e, x, prev, period)
			}
			prev = x
			if got := tr.Exposure(x); math.Abs(got-e) > 1e-9*total {
				t.Fatalf("Exposure(InvertExposure(%v)) = %v, want %v", e, got, e)
			}
			if after := tr.Exposure(math.Min(x+h, period)); !(after > e) {
				t.Fatalf("Exposure(%v) = %v just after InvertExposure(%v) = %v, want > %v", x+h, after, e, x, e)
			}
		}
	}

	// SurvivalIntegral: int_0^Period exp(-rate m(s)) ds by the midpoint
	// rule on the trace's own Exposure, and rate x TotalExposure.
	rate := 1 / period
	integral, exposure := tr.SurvivalIntegral(rate)
	if numeric.RelErr(exposure, rate*total) > 1e-12 {
		t.Errorf("SurvivalIntegral exposure = %v, want rate x TotalExposure = %v", exposure, rate*total)
	}
	const cells = 1 << 14
	var sum numeric.KahanSum
	for i := 0; i < cells; i++ {
		sum.Add(math.Exp(-rate * tr.Exposure((float64(i)+0.5)*period/cells)))
	}
	if want := sum.Sum() * period / cells; numeric.RelErr(integral, want) > 1e-6 {
		t.Errorf("SurvivalIntegral integral = %v, midpoint rule %v", integral, want)
	}
}
