package montecarlo

import (
	"math"

	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

// fusedState is the Fused engine's precomputation: one merged
// system-level cumulative-hazard table covering every component whose
// trace can join the merge, plus per-component fallback samplers for
// the rest.
//
// The merged table exists because independent thinned Poisson
// processes superpose: the system's first failure is the first arrival
// of the process with cumulative hazard H(t) = sum_i rate_i*m_i(t),
// periodic on the components' hyperperiod. Sampling it is the
// single-component inverted closed form verbatim — a geometric number
// of whole survived hyperperiods plus one truncated-exponential
// remainder mapped back to time by one binary search — so a trial
// costs O(log S_total) regardless of the component count.
//
// Components fall back out of the merge in two ways, both preserving
// exactness: a non-materialized trace (lazy LongLoop, or any custom
// Trace) is sampled per component (closed form via its own
// ExposureInverter, or thinning), and if the materialized traces'
// periods are incommensurate — or the merged table would exceed the
// segment cap — the whole merge degrades to per-component inverted
// sampling. The min of the merged draw and the fallback draws is the
// system failure time either way.
type fusedState struct {
	// merged is nil when no component could join the merge (or the
	// merge failed); rest then carries every live component.
	merged   *trace.MergedExposure
	totalHaz float64 // merged.Total(): cumulative hazard per hyperperiod
	pFail    float64 // 1 - e^(-totalHaz), kept in probability space
	period   float64 // merged.Period(): the hyperperiod
	rest     []invComp
}

// fusedState returns (building on first use) the Fused engine's merged
// precomputation.
func (c *Compiled) fusedState() *fusedState {
	c.fusedOnce.Do(func() { c.fused = newFusedState(c.components) })
	return c.fused
}

func newFusedState(components []Component) *fusedState {
	var rates []float64
	var pieces []*trace.Piecewise
	var rest []Component
	for i := range components {
		comp := &components[i]
		if comp.Rate == 0 || comp.Trace.AVF() == 0 {
			continue // can never fail; contributes +Inf to the min
		}
		if p, ok := comp.Trace.(*trace.Piecewise); ok {
			rates = append(rates, comp.Rate)
			pieces = append(pieces, p)
			continue
		}
		rest = append(rest, *comp)
	}
	fs := &fusedState{}
	if len(pieces) > 0 {
		m, err := trace.NewMergedExposure(rates, pieces, 0)
		if err != nil {
			// Incommensurate periods or an over-cap table: degrade to
			// per-component inverted sampling, which is exact for any
			// period mixture. Fall back with the components in their
			// ORIGINAL order (not mergeable-last): the degraded trial
			// then draws from the shared per-trial stream in component
			// order, the draw order every seeded degraded estimate is
			// pinned to.
			fs.rest = newInvComps(components)
			return fs
		}
		fs.merged = m
		fs.totalHaz = m.Total()
		fs.pFail = numeric.OneMinusExpNeg(fs.totalHaz)
		fs.period = m.Period()
	}
	fs.rest = newInvComps(rest)
	return fs
}

// trialFused samples one system failure time: one closed-form draw on
// the merged hazard table, then per-component fallback draws for
// components outside the merge (exposure inversion, or thinning for
// traces without an exposure table), taking the min. A trial in which
// nothing fails within the representable horizon (every per-period
// exposure underflowed to zero) reports +Inf rather than an error.
//
//soferr:hotpath
func trialFused(fs *fusedState, ds *drawSource, maxArrivals int) (float64, error) {
	best := math.Inf(1)
	if fs.merged != nil && fs.totalHaz > 0 {
		// Identical math to invComp.sample, one level up: whole survived
		// hyperperiods are geometric with hazard totalHaz per period,
		// and the within-period remainder is a truncated exponential
		// inverted on the merged table.
		k := math.Floor(numeric.ExpInvCDF(ds.Float64Open()) / fs.totalHaz)
		h := numeric.TruncExpInvCDF(ds.Float64(), fs.pFail)
		best = k*fs.period + fs.merged.Invert(h)
	}
	for i := range fs.rest {
		ic := &fs.rest[i]
		if ic.thinning {
			t, failed, err := thinFirstArrival(ic.comp, &ds.rng, best, maxArrivals)
			if err != nil {
				return 0, err
			}
			if failed && t < best {
				best = t
			}
			continue
		}
		if t := ic.sample(ds); t < best {
			best = t
		}
	}
	return best, nil
}
