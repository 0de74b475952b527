package montecarlo

import (
	"math"

	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

// invComp is the per-component precomputation for inverted sampling.
//
// A raw Poisson process of rate lambda thinned by the periodic
// vulnerability v(t) is an inhomogeneous Poisson process with
// cumulative hazard H(t) = lambda*m(t), where m is the cumulative
// exposure. The first unmasked arrival T satisfies H(T) = E with
// E ~ Exp(1), so T = H^-1(E). Because m advances by exactly
// m(L) per period, the inversion splits into a geometric number of
// whole survived periods plus a truncated-exponential remainder
// inverted on the one-period table — O(log S) total, independent of
// the raw rate, the AVF, and the number of masked arrivals.
type invComp struct {
	rate   float64
	period float64
	// pFail = 1 - e^(-rate*m(L)): probability of failing within any one
	// period, kept as a probability so tiny exposures lose no precision.
	pFail float64
	// perPeriodExposure = rate * m(L): the cumulative hazard of one period.
	perPeriodExposure float64
	tr                trace.Trace
}

// newInvComps precomputes inverted samplers for every component that
// can fail.
func newInvComps(components []Component) []invComp {
	out := make([]invComp, 0, len(components))
	for i := range components {
		c := &components[i]
		if c.Rate == 0 || c.Trace.AVF() == 0 {
			continue // can never fail; contributes +Inf to the min
		}
		h := c.Rate * c.Trace.TotalExposure()
		out = append(out, invComp{
			rate:              c.Rate,
			period:            c.Trace.Period(),
			pFail:             numeric.OneMinusExpNeg(h),
			perPeriodExposure: h,
			tr:                c.Trace,
		})
	}
	return out
}

// sample draws one first-unmasked-arrival time for the component. It
// draws through the drawSource — exactly the per-trial PCG stream
// under the default sampler, or two Sobol coordinates under QMC —
// consuming either two uniforms or (zero-exposure early return) none,
// a count that is fixed per component across trials so the Sobol
// dimension assignment stays aligned.
//
//soferr:hotpath
func (ic *invComp) sample(ds *drawSource) float64 {
	if ic.perPeriodExposure == 0 {
		// rate*m(L) underflowed to zero: failure is beyond any
		// representable horizon.
		return math.Inf(1)
	}
	// Whole survived periods: P(K >= k) = e^(-k*rate*m(L)), i.e.
	// K = floor(Exp(1) / (rate*m(L))). Kept in float64 so huge counts
	// (low-rate regimes) lose only relative precision, not correctness.
	k := math.Floor(numeric.ExpInvCDF(ds.Float64Open()) / ic.perPeriodExposure)
	// Within-period exposure target, conditioned on failing inside a
	// period (memorylessness makes it independent of K): a truncated
	// exponential with mass pFail, mapped back to time by one binary
	// search over the trace's cumulative-exposure table.
	e := numeric.TruncExpInvCDF(ds.Float64(), ic.pFail) / ic.rate
	return k*ic.period + ic.tr.InvertExposure(e)
}
