package montecarlo

import (
	"errors"
	"fmt"
	"math"

	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

// ErrExactUnavailable is returned by Exact-engine queries on systems
// of two or more failing components whose cumulative hazard cannot be
// tabulated in closed form: the merged table was refused (it wraps
// trace.ErrIncommensurate or trace.ErrMergedTooLarge, so errors.Is sees
// both the umbrella and the cause), or a non-materialized trace appears
// alongside other failing components. A single failing component is
// never refused. Callers fall back to a sampling engine (Fused answers
// every system).
var ErrExactUnavailable = errors.New("montecarlo: exact engine cannot tabulate this system's hazard")

// ErrExactNoSamples is returned by sample-collecting runs (TTFSamples)
// under the Exact engine: the closed-form integrator draws no random
// variates, so there are no per-trial failure times to return. MTTF
// queries are unaffected.
var ErrExactNoSamples = errors.New("montecarlo: exact engine is deterministic and has no failure-time samples to collect")

// exactExposure is the capability a single component's trace must
// provide for the distribution queries (Reliability, FailureQuantile):
// an evaluable and invertible cumulative exposure. trace.Piecewise and
// the lazy trace.LongLoop both provide it.
type exactExposure interface {
	Exposure(x float64) float64
	InvertExposure(e float64) float64
}

// exactState is the Exact engine's precomputation: the one-hyperperiod
// survival integral, the per-hyperperiod hazard, and the (evaluate,
// invert) pair over the cumulative hazard H. Every exact query is then
// O(1) arithmetic plus at most one O(log S) table lookup:
//
//	MTTF           = int_0^P exp(-H(s)) ds / (1 - exp(-H(P)))
//	Reliability(t) = exp(-(k*H(P) + H(t - k*P))),  k = floor(t/P)
//	Quantile(p)    = k*P + H^-1(h - k*H(P)),       h = -log1p(-p)
//
// The geometric tail is evaluated with expm1/log1p so that H(P) near
// zero (an almost-never-failing system) cancels nothing, and H(P)
// exactly zero routes to the well-typed never-failing +Inf answer.
type exactState struct {
	// err is the typed refusal; when set, every exact query fails with
	// it (wrapping ErrExactUnavailable).
	err error
	// infinite marks a system that never fails (no live component, or
	// every per-period hazard underflowed to zero): MTTF = +Inf,
	// Reliability = 1, quantiles = +Inf.
	infinite bool
	period   float64 // hyperperiod P
	totalHaz float64 // H(P)
	integral float64 // int_0^P exp(-H(s)) ds
	mttf     float64
	// cumHaz evaluates H on [0, P]; invert is its right-continuous
	// generalized inverse. nil (with err nil) only for a single trace
	// that can integrate survival but not evaluate exposure (a custom
	// Trace); MTTF still works, the distribution queries refuse.
	cumHaz func(x float64) float64
	invert func(h float64) float64
}

// exactState returns (building on first use) the Exact engine's
// integration state. It is built independently of fusedState because
// the two treat merge refusal oppositely: Fused silently degrades to
// per-component sampling, Exact must surface the typed error.
func (c *Compiled) exactState() *exactState {
	c.exactOnce.Do(func() { c.exact = newExactState(c.components) })
	return c.exact
}

func newExactState(components []Component) *exactState {
	var live []*Component
	for i := range components {
		comp := &components[i]
		if comp.Rate == 0 || comp.Trace.AVF() == 0 {
			continue // can never fail; contributes nothing to H
		}
		live = append(live, comp)
	}
	switch len(live) {
	case 0:
		return &exactState{infinite: true}
	case 1:
		// A single live component needs no merge: its trace's own
		// survival integral is the system integral, and H(t) = rate *
		// m(t). This covers every trace kind, lazy LongLoops and
		// tables beyond the merge cap included, so a one-component
		// system is never refused.
		comp := live[0]
		integral, exposure := comp.Trace.SurvivalIntegral(comp.Rate)
		es := &exactState{
			period:   comp.Trace.Period(),
			totalHaz: exposure,
			integral: integral,
		}
		if et, ok := comp.Trace.(exactExposure); ok {
			rate := comp.Rate
			es.cumHaz = func(x float64) float64 { return rate * et.Exposure(x) }
			es.invert = func(h float64) float64 { return et.InvertExposure(h / rate) }
		}
		es.finish()
		return es
	}

	// Two or more live components integrate on the merged system table,
	// which aligns every component on the common hyperperiod and so
	// needs materialized traces.
	rates := make([]float64, len(live))
	pieces := make([]*trace.Piecewise, len(live))
	for i, comp := range live {
		p, ok := comp.Trace.(*trace.Piecewise)
		if !ok {
			return &exactState{err: fmt.Errorf("%w: non-materialized trace in a %d-component system", ErrExactUnavailable, len(live))}
		}
		rates[i], pieces[i] = comp.Rate, p
	}
	m, err := trace.NewMergedExposure(rates, pieces, 0)
	if err != nil {
		return &exactState{err: fmt.Errorf("%w: %w", ErrExactUnavailable, err)}
	}
	es := &exactState{
		period:   m.Period(),
		totalHaz: m.Total(),
		integral: m.SurvivalIntegral(),
		cumHaz:   m.CumHazard,
		invert:   m.Invert,
	}
	es.finish()
	return es
}

// finish derives the MTTF from the integral and the geometric tail,
// routing a zero per-hyperperiod hazard (every exposure underflowed) to
// the never-failing answer rather than a division by zero.
func (es *exactState) finish() {
	if es.totalHaz == 0 {
		es.infinite = true
		return
	}
	// MTTF = integral * sum_{k>=0} e^(-k*H(P)) = integral/(1-e^(-H(P))).
	// OneMinusExpNeg (expm1) keeps the denominator exact for tiny H(P),
	// where 1-exp(-H(P)) computed literally would cancel to rounding
	// noise and bias the MTTF of almost-never-failing systems.
	es.mttf = es.integral / numeric.OneMinusExpNeg(es.totalHaz)
}

// ExactMTTF returns the exact system MTTF in closed form: the
// one-hyperperiod survival integral divided by the per-hyperperiod
// failure probability. Deterministic, trial-free, and zero-variance; a
// never-failing system returns +Inf. Systems whose hazard cannot be
// tabulated return ErrExactUnavailable.
func (c *Compiled) ExactMTTF() (float64, error) {
	es := c.exactState()
	if es.err != nil {
		return 0, es.err
	}
	if es.infinite {
		return math.Inf(1), nil
	}
	return es.mttf, nil
}

// ExactReliability returns the exact survival probability
// S(t) = exp(-H(t)) for t >= 0, with H extended past the hyperperiod by
// periodicity: H(t) = k*H(P) + H(t - k*P). A never-failing system
// returns 1 for every t; t = +Inf returns 0 for any failing system.
func (c *Compiled) ExactReliability(t float64) (float64, error) {
	if t < 0 || math.IsNaN(t) {
		return 0, fmt.Errorf("montecarlo: ExactReliability at invalid time %v", t)
	}
	es := c.exactState()
	if es.err != nil {
		return 0, es.err
	}
	if es.infinite {
		return 1, nil
	}
	if es.cumHaz == nil {
		return 0, fmt.Errorf("%w: trace cannot evaluate cumulative exposure", ErrExactUnavailable)
	}
	if math.IsInf(t, 1) {
		return 0, nil
	}
	// H(t) can overflow to +Inf for astronomically large t; ExpNeg
	// clamps it to the correct limit 0.
	return numeric.ExpNeg(es.hazard(t)), nil
}

// hazard evaluates the cumulative hazard at a finite t >= 0 by the
// periodic fold H(t) = k*H(P) + H(t - k*P), k = floor(t/P). Reliability
// and FailureQuantile both evaluate H through it, so a quantile checked
// against it is checked against the survival function callers see.
func (es *exactState) hazard(t float64) float64 {
	k := math.Floor(t / es.period)
	rem := t - k*es.period
	if rem < 0 {
		rem = 0
	}
	// Roundoff can push the remainder to a full period; fold it back.
	if rem >= es.period {
		k++
		rem -= es.period
		if rem < 0 {
			rem = 0
		}
	}
	return k*es.totalHaz + es.cumHaz(rem)
}

// ExactFailureQuantile returns the exact generalized inverse of
// 1 - Reliability: the earliest instant at which the failure
// probability exceeds p. Failures only land at vulnerable instants, so
// quantiles jump across idle spans; p = 0 returns the first vulnerable
// instant, p = 1 and never-failing systems return +Inf. At float
// resolution the answer satisfies F(t) >= p as ExactReliability
// evaluates F.
func (c *Compiled) ExactFailureQuantile(p float64) (float64, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("montecarlo: ExactFailureQuantile of invalid probability %v", p)
	}
	es := c.exactState()
	if es.err != nil {
		return 0, es.err
	}
	if es.infinite || p == 1 {
		return math.Inf(1), nil
	}
	if es.invert == nil {
		return 0, fmt.Errorf("%w: trace cannot invert cumulative exposure", ErrExactUnavailable)
	}
	// F(t) > p  <=>  H(t) > -log1p(-p). Log1p keeps tiny p exact: the
	// target hazard for p = 1e-18 is 1e-18, not the 0 that log(1-p)
	// would produce.
	h := -math.Log1p(-p)
	k := math.Floor(h / es.totalHaz)
	rem := h - k*es.totalHaz
	if rem < 0 {
		rem = 0
	}
	if rem >= es.totalHaz {
		k++
		rem -= es.totalHaz
		if rem < 0 {
			rem = 0
		}
	}
	t := k*es.period + es.invert(rem)
	// Rounding k*P + H^-1(rem) to a float can land t an ulp or two short
	// of the crossing (onto the start of a vulnerable span, or inside a
	// span narrower than the float spacing at t), where F(t) < p. Step up
	// to the first float at which the folded hazard reaches the target.
	for es.hazard(t) < h {
		t = math.Nextafter(t, math.Inf(1))
	}
	return t, nil
}
