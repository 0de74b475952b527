package montecarlo

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/soferr/soferr/internal/analytic"
	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

func TestInvertedAgainstClosedForm(t *testing.T) {
	// Per-component inverted sampling (Fused's path for components
	// outside the merge) must reproduce Derivation 1's closed form in
	// every rate*L regime, including the extremes where literal thinning
	// needs thousands of draws per trial.
	cases := []struct {
		name               string
		rate, period, busy float64
	}{
		{"tiny rateL", 1e-6, 10, 5},
		{"small rateL", 1e-3, 10, 5},
		{"moderate rateL", 0.05, 10, 5},
		{"large rateL", 0.5, 10, 2},
		{"huge rateL", 50, 10, 2},
		{"asymmetric", 0.2, 100, 10},
		{"narrow window", 0.01, 1000, 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tr := busyIdle(t, tt.period, tt.busy)
			want, err := analytic.BusyIdleMTTF(tt.rate, tt.period, tt.busy)
			if err != nil {
				t.Fatal(err)
			}
			c := perComponent(t, []Component{{Rate: tt.rate, Trace: tr}})
			res, err := c.MTTF(context.Background(), Config{Trials: 150000, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if numeric.RelErr(res.MTTF, want) > 0.015 {
				t.Errorf("MC = %v, closed form = %v (relerr %v, stderr %v)",
					res.MTTF, want, numeric.RelErr(res.MTTF, want), res.RelStdErr())
			}
		})
	}
}

// TestEnginesAgreeWithinStdErr is the cross-method property test: on
// every (trace, rate, seed) triple the naive oracle, per-component
// inverted sampling, and the merged Fused trial must produce MTTFs
// within 3 combined standard errors of each other. Distinct seeds per
// method keep the estimates independent, so the 3-sigma bound holds
// with ~99.7% probability per comparison.
func TestEnginesAgreeWithinStdErr(t *testing.T) {
	fractional, err := trace.NewPiecewise([]trace.Segment{
		{Start: 0, End: 2, Vuln: 0.8},
		{Start: 2, End: 5, Vuln: 0},
		{Start: 5, End: 7, Vuln: 0.25},
		{Start: 7, End: 10, Vuln: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := []struct {
		name string
		tr   trace.Trace
	}{
		{"busyidle", mustBusyIdle(t, 10, 5)},
		{"narrow", mustBusyIdle(t, 100, 2)},
		{"fractional", fractional},
	}
	rates := []float64{1e-4, 1e-2, 1}
	seeds := []uint64{1, 99}
	const trials = 40000
	for _, trc := range traces {
		for _, rate := range rates {
			for _, seed := range seeds {
				comps := []Component{{Rate: rate, Trace: trc.tr}}
				fused := mustCompile(t, comps)
				results := map[string]Result{"naive": naiveMTTF(t, fused, trials, seed+2<<32)}
				for _, m := range []struct {
					name string
					c    *Compiled
					off  uint64
				}{{"inverted", perComponent(t, comps), 3}, {"fused", fused, 4}} {
					res, err := m.c.MTTF(context.Background(), Config{Trials: trials, Seed: seed + m.off<<32})
					if err != nil {
						t.Fatalf("%s rate=%g seed=%d %s: %v", trc.name, rate, seed, m.name, err)
					}
					results[m.name] = res
				}
				for _, pair := range [][2]string{
					{"naive", "inverted"}, {"naive", "fused"}, {"inverted", "fused"},
				} {
					a, b := results[pair[0]], results[pair[1]]
					diff := math.Abs(a.MTTF - b.MTTF)
					bound := 3 * math.Hypot(a.StdErr, b.StdErr)
					if diff > bound {
						t.Errorf("%s rate=%g seed=%d: %s=%v vs %s=%v differ by %v > %v",
							trc.name, rate, seed, pair[0], a.MTTF, pair[1], b.MTTF, diff, bound)
					}
				}
			}
		}
	}
}

func mustBusyIdle(t *testing.T, period, busy float64) trace.Trace {
	t.Helper()
	return busyIdle(t, period, busy)
}

func TestInvertedSystem(t *testing.T) {
	// A heterogeneous series system: the per-component inverted min
	// must agree with the naive oracle's literal simulation.
	a := busyIdle(t, 10, 5)
	b := busyIdle(t, 10, 3)
	c := busyIdle(t, 24, 6)
	comps := []Component{
		{Name: "a", Rate: 0.1, Trace: a},
		{Name: "b", Rate: 0.05, Trace: b},
		{Name: "c", Rate: 0.02, Trace: c},
	}
	pc := perComponent(t, comps)
	nai := naiveMTTF(t, pc, 120000, 3)
	inv, err := pc.MTTF(context.Background(), Config{Trials: 120000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(nai.MTTF - inv.MTTF); diff > 3*math.Hypot(nai.StdErr, inv.StdErr) {
		t.Errorf("naive %v vs inverted %v (diff %v)", nai.MTTF, inv.MTTF, diff)
	}
}

func TestInvertedDeterminismAcrossWorkerCounts(t *testing.T) {
	c := perComponent(t, []Component{{Rate: 0.1, Trace: busyIdle(t, 10, 4)}})
	cfg := func(workers int) Config {
		return Config{Trials: 20000, Seed: 42, Workers: workers}
	}
	one, err := c.MTTF(context.Background(), cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := c.MTTF(context.Background(), cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if one.MTTF != four.MTTF || one.StdErr != four.StdErr {
		t.Errorf("worker count changed result: %+v vs %+v", one, four)
	}
}

func TestInvertedSamplesMatchSummary(t *testing.T) {
	// The per-trial times the trialTimes helper draws and the runner's
	// streamed summary must agree on the mean exactly up to
	// accumulation order: the helper sees what the runner folds.
	c := perComponent(t, []Component{{Rate: 0.1, Trace: busyIdle(t, 10, 4)}})
	cfg := Config{Trials: 30000, Seed: 5}
	sum, err := c.MTTF(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := meanStdErr(trialTimes(t, c, cfg))
	if numeric.RelErr(sum.MTTF, mean) > 1e-12 {
		t.Errorf("streaming mean %v vs sample mean %v", sum.MTTF, mean)
	}
}

func TestEngineNames(t *testing.T) {
	for _, e := range []Engine{Fused, Exact} {
		got, err := EngineByName(strings.ToUpper(e.String()))
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Errorf("EngineByName(%q) = %v, want %v", e.String(), got, e)
		}
	}
	var zero Engine
	if zero != Fused {
		t.Errorf("zero Engine = %v, want fused", zero)
	}
	// The engines cut from the package, and any other name, fall
	// through to the unknown-engine error naming the valid ones.
	for _, name := range []string{"superposed", "naive", "inverted", "warp", ""} {
		_, err := EngineByName(name)
		if err == nil || !strings.Contains(err.Error(), "fused or exact") {
			t.Errorf("EngineByName(%q) err = %v, want an unknown-engine error naming fused and exact", name, err)
		}
	}
}

func BenchmarkEngines(b *testing.B) {
	// Head-to-head cost on the same low-AVF narrow-window trace, where
	// arrival enumeration would be most expensive: the merged Fused
	// trial and the per-component inverted path.
	tr, err := trace.BusyIdle(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	comps := []Component{{Rate: 0.01, Trace: tr}}
	for _, e := range []struct {
		name string
		c    *Compiled
	}{
		{"fused", mustCompile(b, comps)},
		{"inverted", perComponent(b, comps)},
	} {
		b.Run(e.name, func(b *testing.B) {
			if _, err := e.c.MTTF(context.Background(), Config{Trials: b.N, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func mustCompile(t testing.TB, comps []Component) *Compiled {
	t.Helper()
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
