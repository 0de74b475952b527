package trace

import (
	"errors"
	"fmt"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errCoarsenNil = errors.New("trace: Coarsen of nil trace")
)

// Coarsen reduces a trace to at most maxSegments equal-width segments
// whose vulnerability is the exact time-average of the original within
// each window. The AVF (and therefore every rate-linear quantity) is
// preserved exactly; what is lost is sub-window placement, which
// perturbs survival quantities only at second order in
// rate x windowWidth. For simulator traces with millions of
// cycle-granularity segments, coarsening to ~1e5 windows makes
// Monte-Carlo lookups several times faster at negligible (<1e-6)
// distortion for any realistic raw error rate.
//
// If the trace already fits, the original is returned unchanged.
func Coarsen(p *Piecewise, maxSegments int) (*Piecewise, error) {
	if p == nil {
		return nil, errCoarsenNil
	}
	if maxSegments < 1 {
		return nil, fmt.Errorf("trace: Coarsen needs maxSegments >= 1, got %d", maxSegments)
	}
	if len(p.segs) <= maxSegments {
		return p, nil
	}
	width := p.period / float64(maxSegments)
	segs := make([]Segment, maxSegments)
	prevExp := 0.0
	start := 0.0
	for i := 0; i < maxSegments; i++ {
		end := float64(i+1) * width
		if i == maxSegments-1 {
			end = p.period
		}
		exp := p.Exposure(end)
		v := (exp - prevExp) / (end - start)
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		segs[i] = Segment{Start: start, End: end, Vuln: v}
		prevExp = exp
		start = end
	}
	return ownPiecewise(segs)
}
