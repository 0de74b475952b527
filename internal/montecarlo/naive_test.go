package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/turandot"
	"github.com/soferr/soferr/internal/workload"
	"github.com/soferr/soferr/internal/xrand"
)

// trialNaive is the paper's Section 4.3 method taken literally, kept
// as the test oracle the engines are checked against: it simulates
// every component's raw Poisson arrivals, thins each against the
// component's trace, and returns the earliest unmasked arrival. A
// trial in which no component fails within the representable horizon
// reports +Inf, the never-failing answer.
func trialNaive(components []Component, r *xrand.Rand, maxArrivals int) float64 {
	best := math.Inf(1)
	for i := range components {
		if t, failed := thinFirstArrival(&components[i], r, best, maxArrivals); failed && t < best {
			best = t
		}
	}
	return best
}

// thinFirstArrival draws raw arrivals for one component and thins them
// against the trace until the first unmasked arrival, giving up once t
// exceeds cutoff (a later arrival cannot beat the running minimum).
// failed reports whether an unmasked arrival at t < cutoff was found.
// A component that draws maxArrivals masked arrivals panics; the block
// runner turns the panic into ErrTrialPanic, which fails the test.
func thinFirstArrival(c *Component, r *xrand.Rand, cutoff float64, maxArrivals int) (t float64, failed bool) {
	if c.Rate == 0 || c.Trace.AVF() == 0 {
		return 0, false
	}
	for n := 0; n < maxArrivals; n++ {
		t += r.Exp(c.Rate)
		if t >= cutoff {
			return 0, false
		}
		if r.Bool(c.Trace.VulnAt(t)) {
			return t, true
		}
	}
	panic(fmt.Sprintf("component %s exceeded %d arrivals", c.Name, maxArrivals))
}

// naiveMTTF runs the oracle over trials [0, trials) of the seed's
// per-trial streams on the engines' own block runner, so it shares
// their stream derivation, block-ordered accumulation, and
// worker-count independence.
func naiveMTTF(t testing.TB, c *Compiled, trials int, seed uint64) Result {
	t.Helper()
	br := &blockRunner{
		trial: func(ds *drawSource) float64 {
			return trialNaive(c.components, &ds.rng, 100_000_000)
		},
		seed: seed,
		reps: 1,
	}
	accs := make([]numeric.Welford, (trials+trialBlock-1)/trialBlock)
	br.runRange(0, trials, 2, accs)
	if err := br.err(); err != nil {
		t.Fatal(err)
	}
	merged := make([]numeric.Welford, 1)
	mergeBlockAccs(merged, accs)
	return finishResult(merged, trials, PCG)
}

// perComponent compiles comps with the Fused merge refused, so every
// trial takes the per-component path Fused degrades to on
// incommensurate periods: each component's first unmasked arrival by
// exposure inversion, in component order. Its Exact answers come from
// an ordinary compile of the same components, since Exact reads the
// merged table this one withholds.
func perComponent(t testing.TB, comps []Component) *Compiled {
	t.Helper()
	exact := mustCompile(t, comps).exactState()
	c := mustCompile(t, comps)
	c.exactOnce.Do(func() { c.exact = exact })
	c.fusedOnce.Do(func() { c.fused = &fusedState{rest: newInvComps(c.components)} })
	return c
}

// simulatedTrace returns the integer-unit trace of a short simulated
// run of the named SPEC-like benchmark.
func simulatedTrace(t *testing.T, name string) *trace.Piecewise {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := prof.Generate(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := turandot.New(turandot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	traces := res.Traces
	return traces.Int
}

// TestNaiveOracleConformance checks both engines against the paper's
// literal method on the conformance suite's system shapes (the same
// traces and rates, in errors/second) plus a Trace implemented outside
// package trace: the Fused estimate must sit within 6 combined
// standard errors of the oracle's, and where the Exact engine answers
// the oracle must sit within 6 of its own standard errors of the
// closed form. Distinct seeds keep the two estimates independent.
func TestNaiveOracleConformance(t *testing.T) {
	perYear := func(r float64) float64 { return r / (365.25 * 24 * 3600) }
	multiInterval, err := trace.Periodic(12, []trace.Interval{{Start: 1, End: 3}, {Start: 5, End: 5.5}, {Start: 8, End: 11}})
	if err != nil {
		t.Fatal(err)
	}
	multiInterval10, err := trace.Periodic(10, []trace.Interval{{Start: 1, End: 3}, {Start: 5, End: 5.5}, {Start: 8, End: 9.5}})
	if err != nil {
		t.Fatal(err)
	}
	levels, err := trace.FromLevels([]float64{0.8, 0.1, 0.6, 0, 0.3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := trace.Periodic(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	gzip := simulatedTrace(t, "gzip")
	combined, err := workload.Combined(gzip, simulatedTrace(t, "swim"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		comps []Component
	}{
		{name: "busy-idle single", comps: []Component{{Name: "c", Rate: perYear(1e6), Trace: busyIdle(t, 10, 4)}}},
		{name: "multi-interval single", comps: []Component{{Name: "c", Rate: perYear(5e5), Trace: multiInterval}}},
		{name: "fractional levels single", comps: []Component{{Name: "c", Rate: perYear(8e5), Trace: levels}}},
		{name: "multi-component equal period", comps: []Component{
			{Name: "a", Rate: perYear(4e5), Trace: busyIdle(t, 10, 3)},
			{Name: "b", Rate: perYear(2e5), Trace: multiInterval10},
			{Name: "c", Rate: perYear(6e5), Trace: busyIdle(t, 10, 7)},
		}},
		{name: "multi-component commensurate 10 s and 12 s mix", comps: []Component{
			{Name: "a", Rate: perYear(4e5), Trace: busyIdle(t, 10, 3)},
			{Name: "b", Rate: perYear(2e5), Trace: multiInterval},
			{Name: "c", Rate: perYear(6e5), Trace: busyIdle(t, 10, 7)},
		}},
		{name: "commensurate unequal periods", comps: []Component{
			{Name: "a", Rate: perYear(3e5), Trace: busyIdle(t, 6, 2)},
			{Name: "b", Rate: perYear(1e5), Trace: busyIdle(t, 8, 5)},
			{Name: "c", Rate: perYear(2e5), Trace: busyIdle(t, 12, 9)},
		}},
		{name: "never failing", comps: []Component{{Name: "idle", Rate: perYear(1e6), Trace: idle}}},
		{name: "single lazy long-loop", comps: []Component{{Name: "combined", Rate: perYear(1e8), Trace: combined}}},
		{name: "mixed lazy and materialized", comps: []Component{
			{Name: "combined", Rate: perYear(1e8), Trace: combined},
			{Name: "piecewise", Rate: perYear(1e8), Trace: gzip},
		}},
		{name: "non-Piecewise single outside the merge", comps: []Component{{Name: "opaque", Rate: perYear(1e6), Trace: opaqueTrace{busyIdle(t, 10, 4)}}}},
	}
	ctx := context.Background()
	const trials = 20000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.comps)
			if err != nil {
				t.Fatal(err)
			}
			oracle := naiveMTTF(t, c, trials, 1)
			fused, err := c.MTTF(ctx, Config{Trials: trials, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			exact, exactErr := c.ExactMTTF()
			if math.IsInf(oracle.MTTF, 1) {
				if !math.IsInf(fused.MTTF, 1) || fused.StdErr != 0 || exactErr != nil || !math.IsInf(exact, 1) {
					t.Errorf("never-failing: oracle +Inf, fused %+v, exact %v (%v)", fused, exact, exactErr)
				}
				return
			}
			if diff, bound := math.Abs(fused.MTTF-oracle.MTTF), 6*math.Hypot(fused.StdErr, oracle.StdErr); diff > bound {
				t.Errorf("fused %v vs oracle %v: off by %v > 6 combined stderr (%v)", fused.MTTF, oracle.MTTF, diff, bound)
			}
			if exactErr != nil {
				if !errors.Is(exactErr, ErrExactUnavailable) {
					t.Fatalf("exact err = %v, want ErrExactUnavailable", exactErr)
				}
				return
			}
			if diff, bound := math.Abs(oracle.MTTF-exact), 6*oracle.StdErr; diff > bound {
				t.Errorf("oracle %v vs closed form %v: off by %v > 6 stderr (%v)", oracle.MTTF, exact, diff, bound)
			}
		})
	}
}
