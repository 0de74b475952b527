package soferr

import (
	"context"
	"errors"
	"fmt"

	"github.com/soferr/soferr/internal/analytic"
	"github.com/soferr/soferr/internal/avf"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/sofr"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
	"github.com/soferr/soferr/internal/workload"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errUnionEmpty = errors.New("soferr: union of no components")
	errNilTrace   = errors.New("soferr: nil trace")
)

// Trace is a masking trace: an infinitely repeating description of when
// a raw soft error striking a component would be masked. All times are
// seconds; the instantaneous vulnerability is a probability in [0, 1],
// and its time-average over one period is the component's AVF.
//
// Every estimator reads a trace through its cumulative exposure m(x),
// the integral of the vulnerability over [0, x), so an implementation
// provides m, its one-period total and its inverse besides the
// vulnerability itself. The constructors in this package return traces
// that tabulate m once; a Trace implemented elsewhere must supply all
// seven methods.
type Trace interface {
	// Period returns the workload loop length in seconds.
	Period() float64
	// AVF returns the architecture vulnerability factor.
	AVF() float64
	// VulnAt returns the probability that a raw error arriving at time
	// t is unmasked.
	VulnAt(t float64) float64
	// Exposure returns m(x) for x in [0, Period]: 0 at or below 0 and
	// TotalExposure at or beyond Period.
	Exposure(x float64) float64
	// TotalExposure returns m(Period) = AVF x Period.
	TotalExposure() float64
	// InvertExposure returns the first instant x in [0, Period] at which
	// the exposure accumulates beyond e, inf{x : m(x) > e}, clamped to
	// Period for e >= TotalExposure. It jumps across masked spans, where
	// m is flat: failures only land at vulnerable instants.
	InvertExposure(e float64) float64
	// SurvivalIntegral returns the one-period survival integral and
	// total exposure for a raw error process of the given rate in
	// errors/second; see DESIGN.md's Exact-engine section for the math.
	SurvivalIntegral(rate float64) (integral, exposure float64)
}

// Trace and the internal trace.Trace have one method set, so values
// convert between them implicitly (the engines' components rely on it).
var (
	_ trace.Trace = Trace(nil)
	_ Trace       = trace.Trace(nil)
)

// Interval is a half-open vulnerable time span [Start, End) in seconds.
type Interval struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Component is one failure source: a raw soft error process, in
// errors/year (the paper's convention; 1e-8 errors/year per bit is the
// terrestrial baseline), filtered by a masking trace.
type Component struct {
	// Name labels the component in error messages.
	Name string
	// RatePerYear is the raw (pre-masking) soft error rate.
	RatePerYear float64
	// Trace is the component's masking trace.
	Trace Trace
}

// BusyIdleTrace returns a trace for the paper's canonical synthetic
// loop: vulnerable for the first busy seconds of every period-second
// iteration, masked for the remainder.
func BusyIdleTrace(period, busy float64) (Trace, error) {
	return trace.BusyIdle(period, busy)
}

// PeriodicTrace returns a 0/1 trace with the given vulnerable intervals
// inside each period.
func PeriodicTrace(period float64, vulnerable []Interval) (Trace, error) {
	ivs := make([]trace.Interval, len(vulnerable))
	for i, v := range vulnerable {
		ivs[i] = trace.Interval{Start: v.Start, End: v.End}
	}
	return trace.Periodic(period, ivs)
}

// TraceFromBits returns a cycle-granularity trace: bit i covers
// [i, i+1) * cycleSeconds and is vulnerable when true.
func TraceFromBits(bits []bool, cycleSeconds float64) (Trace, error) {
	return trace.FromBits(bits, cycleSeconds)
}

// TraceFromLevels returns a trace from per-cycle vulnerability levels
// in [0, 1] (e.g. the live fraction of a register file).
func TraceFromLevels(levels []float64, cycleSeconds float64) (Trace, error) {
	return trace.FromLevels(levels, cycleSeconds)
}

// DayWorkload returns the paper's "day" schedule: a 24-hour loop, busy
// during the day and idle at night (Section 4.2).
func DayWorkload() (Trace, error) { return workload.Day() }

// WeekWorkload returns the paper's "week" schedule: busy five business
// days, idle on the weekend.
func WeekWorkload() (Trace, error) { return workload.Week() }

// CombinedWorkload returns the paper's "combined" schedule: a 24-hour
// loop whose halves repeat two benchmark traces (typically obtained
// from SimulateBenchmark). Both traces must be materialized traces as
// produced by this package.
func CombinedWorkload(a, b Trace) (Trace, error) {
	pa, ok := a.(*trace.Piecewise)
	if !ok {
		return nil, fmt.Errorf("soferr: combined workload needs materialized traces, got %T", a)
	}
	pb, ok := b.(*trace.Piecewise)
	if !ok {
		return nil, fmt.Errorf("soferr: combined workload needs materialized traces, got %T", b)
	}
	return workload.Combined(pa, pb)
}

// UnionTrace merges component unit traces into a single trace using the
// components' raw rates as weights; the union is exact for both the
// Monte-Carlo and SoftArch estimators (Poisson superposition). All
// traces must be materialized and share one period. The returned
// component carries the summed rate.
func UnionTrace(components []Component) (Component, error) {
	if len(components) == 0 {
		return Component{}, errUnionEmpty
	}
	weights := make([]float64, len(components))
	pieces := make([]*trace.Piecewise, len(components))
	total := 0.0
	for i, c := range components {
		p, ok := c.Trace.(*trace.Piecewise)
		if !ok {
			return Component{}, fmt.Errorf("soferr: component %s: union needs materialized traces, got %T", c.Name, c.Trace)
		}
		pieces[i] = p
		weights[i] = c.RatePerYear
		total += c.RatePerYear
	}
	u, err := trace.WeightedUnion(weights, pieces)
	if err != nil {
		return Component{}, err
	}
	return Component{Name: "union", RatePerYear: total, Trace: u}, nil
}

// ShiftTrace returns a copy of a materialized trace delayed by offset
// seconds (wrapped into the period). Phase shifts model staggered or
// time-zoned fleets: the paper's cluster analysis assumes all
// components run in phase, which is the worst case for SOFR, and
// shifting lets users quantify how fast SOFR recovers as phases
// decorrelate.
func ShiftTrace(tr Trace, offset float64) (Trace, error) {
	p, ok := tr.(*trace.Piecewise)
	if !ok {
		return nil, fmt.Errorf("soferr: ShiftTrace needs a materialized trace, got %T", tr)
	}
	return trace.Shift(p, offset)
}

// AVF returns the architecture vulnerability factor of a trace.
func AVF(tr Trace) float64 { return tr.AVF() }

// AVFMTTF applies the AVF step (Equation 1 of the paper): it returns
// 1/(rate x AVF) in seconds for a component with the given raw rate in
// errors/year.
func AVFMTTF(ratePerYear float64, tr Trace) (float64, error) {
	if tr == nil {
		return 0, errNilTrace
	}
	return avf.MTTF(units.PerYearToPerSecond(ratePerYear), tr.AVF())
}

// SOFRMTTF applies the SOFR step (Equations 2-3): the system MTTF, in
// seconds, of a series system with the given component MTTFs in
// seconds.
func SOFRMTTF(componentMTTFs []float64) (float64, error) {
	return sofr.SystemMTTF(componentMTTFs)
}

// Engine selects the Monte-Carlo trial implementation. The zero value
// is Fused.
type Engine = montecarlo.Engine

const (
	// Fused samples the whole system's failure time from one merged
	// cumulative-hazard table (the superposition of the components'
	// thinned processes, aligned on their hyperperiod): one Exp(1) draw
	// plus one binary search per trial, O(log S_total), independent of
	// rate, AVF, and the component count. Components whose traces
	// cannot join the merge are sampled one by one inside the same
	// trial, each by inverting its own exposure. The default engine.
	Fused = montecarlo.Fused
	// Exact integrates the merged cumulative-hazard table in closed
	// form instead of sampling it: zero trials, zero standard error,
	// microsecond queries. Estimates record Trials = 0 and Seed = 0;
	// WithTrials, WithSeed, and WithTargetRelStdErr are ignored. A
	// single failing component integrates on its own trace and is
	// always answered. Multi-component systems whose hazard cannot be
	// tabulated (incommensurate periods, over-cap merges, lazy traces
	// alongside other components) return ErrExactUnavailable. The same
	// state answers SoftArch, Reliability, and FailureQuantile.
	Exact = montecarlo.Exact
)

// ErrExactUnavailable tags closed-form queries on systems whose
// cumulative hazard cannot be tabulated (incommensurate periods, an
// over-cap merged table, or non-materialized traces alongside other
// failing components; a single failing component is never refused).
// The Exact engine, SoftArch, Reliability, and FailureQuantile all
// return it, since they answer from one state. Callers branch with
// errors.Is and fall back to a sampling engine; it also wraps the
// underlying cause, so errors.Is against the specific merge refusal
// still works.
var ErrExactUnavailable = montecarlo.ErrExactUnavailable

// Sampler selects the uniform-draw source behind a Monte-Carlo query.
type Sampler = montecarlo.Sampler

const (
	// DefaultSampler is the zero value: the query names no sampler and
	// each Fused run picks one. An adaptive query (WithTargetRelStdErr)
	// whose trial cap is at least 4,096 runs Sobol when every draw of
	// its trials has a Sobol dimension (at most 64 draws per trial);
	// every other query runs PCG, so fixed-trial answers keep their PCG
	// streams. Estimate.Sampler records the sampler that ran. The CLI
	// and the wire spell it as the empty or absent name.
	DefaultSampler = montecarlo.DefaultSampler
	// PCG is the pseudo-random sampler: per-trial reseeded PCG streams,
	// bit-identical for any worker count.
	PCG = montecarlo.PCG
	// Sobol is the quasi-Monte-Carlo sampler: an Owen-scrambled Sobol
	// sequence feeds the Fused engine's closed-form draws, typically
	// reaching a precision target in a quarter of the trials PCG needs.
	// The standard error comes from 256 independently scrambled
	// replicates, so adaptive precision targeting works unchanged.
	Sobol = montecarlo.Sobol
)

// MonteCarloResult is a first-principles MTTF estimate.
type MonteCarloResult struct {
	// MTTF is the estimated mean time to failure in seconds.
	MTTF float64
	// StdErr is the standard error of the estimate.
	StdErr float64
	// Trials is the number of trials used.
	Trials int
}

// MonteCarloMTTF estimates the series-system MTTF from first principles
// (Section 4.3 of the paper): exponential raw-error arrivals filtered
// by each component's masking trace, with no AVF or SOFR assumption.
//
// It is the convenience path over a single-use System: equal components
// and Queries give results bit-identical to
// NewSystem(components) + MTTF(ctx, MonteCarlo, WithQuery(q)). Build a
// System directly to amortize compilation and caching across queries,
// and for cancellation.
//
//soferr:allow ctxflow documented ctx-less convenience wrapper over a single-use System; callers needing cancellation build a System
func MonteCarloMTTF(components []Component, q Query) (MonteCarloResult, error) {
	sys, err := NewSystem(components)
	if err != nil {
		return MonteCarloResult{}, err
	}
	est, err := sys.MTTF(context.Background(), MonteCarlo, WithQuery(q))
	if err != nil {
		return MonteCarloResult{}, err
	}
	return MonteCarloResult{MTTF: est.MTTF, StdErr: est.StdErr, Trials: est.Trials}, nil
}

// SoftArchMTTF computes the exact first-principles MTTF, in seconds, of
// a series system via the SoftArch-style survival model (Section 5.4).
// It returns +Inf if no component can ever fail.
//
// It is the convenience path over a single-use System; see NewSystem
// for the build-once/query-many surface.
//
//soferr:allow ctxflow documented ctx-less convenience wrapper over a single-use System; callers needing cancellation build a System
func SoftArchMTTF(components []Component) (float64, error) {
	sys, err := NewSystem(components)
	if err != nil {
		return 0, err
	}
	est, err := sys.MTTF(context.Background(), SoftArch)
	if err != nil {
		return 0, err
	}
	return est.MTTF, nil
}

// BusyIdleMTTF returns the exact MTTF, in seconds, of a component with
// raw rate ratePerYear (errors/year) running the busy/idle loop —
// Derivation 1 of the paper, the closed form behind Figure 3.
func BusyIdleMTTF(ratePerYear, period, busy float64) (float64, error) {
	return analytic.BusyIdleMTTF(units.PerYearToPerSecond(ratePerYear), period, busy)
}

// BusyIdleAVFError returns the relative error of the AVF step on the
// busy/idle loop: one point of the paper's Figure 3.
func BusyIdleAVFError(ratePerYear, period, busy float64) (float64, error) {
	return analytic.BusyIdleAVFError(units.PerYearToPerSecond(ratePerYear), period, busy)
}

// SeriesHalfGaussianSOFRError returns the relative error of the SOFR
// step for a series system of n components with half-Gaussian time to
// failure: one point of the paper's Figure 4.
func SeriesHalfGaussianSOFRError(n int) (float64, error) {
	return analytic.SeriesHalfGaussianSOFRError(n)
}

func toMonteCarlo(components []Component) ([]montecarlo.Component, error) {
	out := make([]montecarlo.Component, len(components))
	for i, c := range components {
		if c.Trace == nil {
			return nil, fmt.Errorf("soferr: component %s has nil trace", c.Name)
		}
		out[i] = montecarlo.Component{
			Name:  c.Name,
			Rate:  units.PerYearToPerSecond(c.RatePerYear),
			Trace: c.Trace,
		}
	}
	return out, nil
}
