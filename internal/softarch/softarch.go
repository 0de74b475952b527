// Package softarch is an independent implementation of the SoftArch
// first-principles MTTF model (Li et al., DSN 2005; Section 5.4 of the
// reproduced paper), kept as the reference the Exact engine is checked
// against. Only tests import it: the library answers the SoftArch
// method from the Exact engine's state (package montecarlo).
//
// A component with raw error rate r and cumulative exposure m(t)
// survives to t with probability S(t) = exp(-r * m(t)), and
//
//	MTTF = (int_0^L exp(-r*m(s)) ds) / (1 - exp(-r*m(L)))
//
// over one period L. For one component both this package and the Exact
// engine call the trace's own SurvivalIntegral. A series system of
// equal-period components is integrated here as one rate-weighted
// union trace (trace.WeightedUnion), where the Exact engine merges the
// components' hazard tables instead, so the multi-component answers
// are computed independently. See DESIGN.md, "Exact engine", for the
// derivation.
package softarch

import (
	"errors"
	"fmt"
	"math"

	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errNilTrace = errors.New("softarch: nil trace")
)

// Component mirrors montecarlo.Component: a raw-error rate in
// errors/second and a masking trace.
type Component struct {
	Name  string
	Rate  float64
	Trace trace.Trace
}

// ComponentMTTF returns the exact first-principles MTTF of a single
// component in seconds. It returns +Inf when the component can never
// fail (zero rate or zero AVF).
func ComponentMTTF(rate float64, tr trace.Trace) (float64, error) {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return 0, fmt.Errorf("softarch: invalid rate %v", rate)
	}
	if tr == nil {
		return 0, errNilTrace
	}
	if rate == 0 || tr.AVF() == 0 {
		return math.Inf(1), nil
	}
	integral, exposure := tr.SurvivalIntegral(rate)
	if exposure <= 0 {
		return math.Inf(1), nil
	}
	return integral / numeric.OneMinusExpNeg(exposure), nil
}

// SystemMTTF returns the exact first-principles MTTF of a series system.
//
// All component traces must share the same period so that the joint
// survival function remains periodic. Components whose traces are
// *trace.Piecewise are merged by rate-weighted union (exact, because
// Poisson intensities add); a single component of any trace type —
// including the lazy LongLoop used for day-scale workloads — is handled
// directly.
func SystemMTTF(components []Component) (float64, error) {
	live := make([]Component, 0, len(components))
	for i, c := range components {
		if c.Rate < 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
			return 0, fmt.Errorf("softarch: component %d (%s) has invalid rate %v", i, c.Name, c.Rate)
		}
		if c.Trace == nil {
			return 0, fmt.Errorf("softarch: component %d (%s) has nil trace", i, c.Name)
		}
		if c.Rate > 0 && c.Trace.AVF() > 0 {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return math.Inf(1), nil
	}
	if len(live) == 1 {
		return ComponentMTTF(live[0].Rate, live[0].Trace)
	}

	rates := make([]float64, len(live))
	pieces := make([]*trace.Piecewise, len(live))
	total := 0.0
	for i, c := range live {
		p, ok := c.Trace.(*trace.Piecewise)
		if !ok {
			return 0, fmt.Errorf("softarch: component %d (%s): multi-component systems need materialized (Piecewise) traces, got %T", i, c.Name, c.Trace)
		}
		pieces[i] = p
		rates[i] = c.Rate
		total += c.Rate
	}
	union, err := trace.WeightedUnion(rates, pieces)
	if err != nil {
		return 0, fmt.Errorf("softarch: %w", err)
	}
	return ComponentMTTF(total, union)
}
