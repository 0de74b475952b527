// Package trace defines masking traces: the interchange format between
// the timing simulator / workload generators and every MTTF estimator
// (AVF, SOFR, Monte-Carlo, SoftArch, analytic).
//
// A masking trace describes one iteration of an infinitely repeating
// workload loop of length Period seconds (Section 3's assumption 2: the
// workload runs in a loop with identical iterations of size L). At every
// instant the trace gives the probability, in [0, 1], that a raw soft
// error arriving at that instant is NOT masked — the instantaneous
// vulnerability. For functional units this is 0/1 (busy/idle, Section
// 4.1); for the register file it is the fraction of registers holding a
// value that will be read again, so it takes fractional values.
//
// The time-average of the vulnerability over one period is exactly the
// component's AVF (Section 2.2).
//
//soferr:deterministic
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/soferr/soferr/internal/numeric"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errNoSegments = errors.New("trace: no segments")
)

// Trace is an infinitely repeating masking pattern. Every estimator
// reads it through its cumulative exposure m(x), the integral of the
// vulnerability over [0, x): the AVF is m(L)/L, the survival model
// integrates e^(-rate*m), and the first unmasked arrival of a raw
// Poisson process of the given rate is m^-1(E/rate) for E ~ Exp(1). An
// implementation therefore provides m, its total over one period and
// its inverse, besides the vulnerability itself; Piecewise and
// LongLoop tabulate m once and answer each in O(log S).
type Trace interface {
	// Period returns the loop iteration length L in seconds.
	Period() float64

	// AVF returns the architecture vulnerability factor: the
	// time-average of the instantaneous vulnerability over one period.
	AVF() float64

	// VulnAt returns the probability that a raw error arriving at
	// absolute time t >= 0 is unmasked. Implementations wrap t modulo
	// Period.
	VulnAt(t float64) float64

	// Exposure returns m(x) for x in [0, Period]: 0 at or below 0 and
	// TotalExposure at or beyond Period.
	Exposure(x float64) float64

	// TotalExposure returns m(Period) = AVF x Period.
	TotalExposure() float64

	// InvertExposure returns the right-continuous generalized inverse
	// of Exposure, inf{x : m(x) > e}, clamped to Period for
	// e >= TotalExposure: the first instant at which the exposure
	// accumulates beyond e. It jumps across masked spans, where m is
	// flat, because failures only land at vulnerable instants.
	InvertExposure(e float64) float64

	// SurvivalIntegral returns, for a raw error process of the given
	// rate (errors/second):
	//
	//	integral = int_0^Period exp(-rate * m(s)) ds
	//	exposure = rate * m(Period)
	//
	// These two numbers are sufficient to compute the exact
	// first-principles MTTF of the component (see the Exact engine in
	// package montecarlo) without enumerating periods.
	SurvivalIntegral(rate float64) (integral, exposure float64)
}

// Segment is a half-open span [Start, End) of one period during which
// the instantaneous vulnerability is the constant Vuln.
type Segment struct {
	Start float64
	End   float64
	Vuln  float64
}

// Piecewise is a materialized trace: a sorted, contiguous sequence of
// constant-vulnerability segments covering [0, Period).
type Piecewise struct {
	period float64
	segs   []Segment
	// cumExp[i] is the vulnerability-weighted measure accumulated before
	// segment i: m(segs[i].Start).
	cumExp []float64
	avf    float64
	// surv memoizes the last SurvivalIntegral result. It sits behind a
	// pointer so Piecewise values can still be shallow-copied (Shift's
	// zero-offset fast path) without tripping vet's copylocks check;
	// sharing the cache between such copies is sound because they
	// describe the identical trace.
	surv *survivalCache
}

// survivalCache is a one-entry memo of SurvivalIntegral keyed by rate.
// The computation is deterministic and idempotent, so a lock-free
// publish via atomic.Pointer is safe under concurrent queries: the
// worst case is recomputing and re-publishing an identical entry.
type survivalCache struct {
	entry atomic.Pointer[survivalEntry]
}

type survivalEntry struct {
	rate               float64
	integral, exposure float64
}

var _ Trace = (*Piecewise)(nil)

// NewPiecewise builds a trace from segments. Segments must start at 0,
// be contiguous and sorted, end at a positive period, and have
// vulnerabilities in [0, 1]. Adjacent segments with equal vulnerability
// are merged. segs is copied; the caller keeps it.
func NewPiecewise(segs []Segment) (*Piecewise, error) {
	return ownPiecewise(slices.Clone(segs))
}

// ownPiecewise is NewPiecewise for a slice the caller hands over: it
// checks and merges the segments in place instead of copying them. The
// trace keeps segs' array, so only exactly sized slices are handed over
// (FromBits, FromLevels and Coarsen build theirs that way).
func ownPiecewise(segs []Segment) (*Piecewise, error) {
	if len(segs) == 0 {
		return nil, errNoSegments
	}
	if segs[0].Start != 0 {
		return nil, fmt.Errorf("trace: first segment starts at %v, want 0", segs[0].Start)
	}
	// merged shares segs' array; it never gets ahead of the reading.
	merged := segs[:0]
	prevEnd := 0.0
	for i, s := range segs {
		if s.End <= s.Start {
			return nil, fmt.Errorf("trace: segment %d is empty or reversed: [%v, %v)", i, s.Start, s.End)
		}
		if s.Vuln < 0 || s.Vuln > 1 || math.IsNaN(s.Vuln) {
			return nil, fmt.Errorf("trace: segment %d vulnerability %v outside [0,1]", i, s.Vuln)
		}
		if i > 0 && s.Start != prevEnd { //soferr:allow floatprec segments must tile the period exactly; bitwise contiguity is the documented input contract and a gap must be rejected, not bridged
			return nil, fmt.Errorf("trace: gap between segment %d end %v and segment %d start %v", i-1, prevEnd, i, s.Start)
		}
		prevEnd = s.End
		if n := len(merged); n > 0 && merged[n-1].Vuln == s.Vuln { //soferr:allow floatprec coalescing bitwise-identical adjacent vulnerabilities; a near-equal miss only keeps an extra segment, never changes VulnAt
			merged[n-1].End = s.End
			continue
		}
		merged = append(merged, s)
	}
	p := &Piecewise{
		period: merged[len(merged)-1].End,
		segs:   merged,
	}
	p.finish()
	return p, nil
}

func (p *Piecewise) finish() {
	p.cumExp = make([]float64, len(p.segs)+1)
	var k numeric.KahanSum
	for i, s := range p.segs {
		p.cumExp[i] = k.Sum()
		k.Add((s.End - s.Start) * s.Vuln)
	}
	p.cumExp[len(p.segs)] = k.Sum()
	p.avf = k.Sum() / p.period
	p.surv = &survivalCache{}
}

// Period returns the loop length in seconds.
func (p *Piecewise) Period() float64 { return p.period }

// AVF returns the time-averaged vulnerability.
func (p *Piecewise) AVF() float64 { return p.avf }

// Segments returns a copy of the segment decomposition of one period.
func (p *Piecewise) Segments() []Segment {
	out := make([]Segment, len(p.segs))
	copy(out, p.segs)
	return out
}

// NumSegments returns the number of constant-vulnerability segments.
func (p *Piecewise) NumSegments() int { return len(p.segs) }

// VulnAt returns the vulnerability at absolute time t.
//
//soferr:hotpath
func (p *Piecewise) VulnAt(t float64) float64 {
	x := wrap(t, p.period)
	i := p.find(x)
	return p.segs[i].Vuln
}

// find returns the index of the segment containing x in [0, period).
func (p *Piecewise) find(x float64) int {
	i := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].End > x })
	if i == len(p.segs) {
		i = len(p.segs) - 1
	}
	return i
}

// Exposure returns m(x): the expected unmasked exposure accumulated over
// [0, x) for x in [0, period].
func (p *Piecewise) Exposure(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= p.period {
		return p.cumExp[len(p.segs)]
	}
	i := p.find(x)
	s := p.segs[i]
	return p.cumExp[i] + (x-s.Start)*s.Vuln
}

// TotalExposure returns m(Period): the expected unmasked exposure
// accumulated over one full period (= AVF x Period).
func (p *Piecewise) TotalExposure() float64 { return p.cumExp[len(p.segs)] }

// InvertExposure returns the right-continuous generalized inverse of
// Exposure: the first instant x in [0, Period] at which the exposure
// accumulates beyond e (inf{x : m(x) > e}), clamped to Period for
// e >= m(Period). Zero-vulnerability segments accumulate no exposure,
// so the inverse jumps across them — a target landing exactly on a
// flat run maps to the start of the next vulnerable segment, which is
// what a first-arrival sampler needs: failures only land at vulnerable
// instants. One binary search over the precomputed cumExp table makes
// this O(log S).
//
// Exposure inversion is what lets a Monte-Carlo trial sample the first
// unmasked arrival in closed form (package montecarlo's per-component
// sampler): the thinned arrival process has cumulative hazard
// rate*m(t), so equating it to an Exp(1) draw reduces to inverting m.
//
//soferr:hotpath
func (p *Piecewise) InvertExposure(e float64) float64 {
	total := p.cumExp[len(p.segs)]
	if e < 0 {
		e = 0
	}
	if e >= total {
		return p.period
	}
	// Smallest segment i with cumExp[i+1] > e: the segment in whose
	// interior (exposure-wise) the target falls.
	i := sort.Search(len(p.segs), func(i int) bool { return p.cumExp[i+1] > e })
	s := p.segs[i]
	// cumExp[i+1] > cumExp[i] implies s.Vuln > 0.
	x := s.Start + (e-p.cumExp[i])/s.Vuln
	if x > s.End {
		x = s.End
	}
	return x
}

// SurvivalIntegral implements Trace. Because the integral walks every
// segment (O(S), and simulator traces have ~10^4 segments), the most
// recent (rate, result) pair is memoized: estimators that query one
// trace repeatedly at a fixed rate — the compiled System, SoftArch
// sweeps, LongLoop phases — pay the walk once.
func (p *Piecewise) SurvivalIntegral(rate float64) (integral, exposure float64) {
	if p.surv != nil {
		if e := p.surv.entry.Load(); e != nil && e.rate == rate { //soferr:allow floatprec memo-cache key identity; a near-miss rate only recomputes the walk, and a tolerance here would silently return the wrong rate's integral
			return e.integral, e.exposure
		}
	}
	integral, exposure = p.survivalIntegral(rate)
	if p.surv != nil {
		p.surv.entry.Store(&survivalEntry{rate: rate, integral: integral, exposure: exposure})
	}
	return integral, exposure
}

func (p *Piecewise) survivalIntegral(rate float64) (integral, exposure float64) {
	exposure = rate * p.cumExp[len(p.segs)]
	var sum numeric.KahanSum
	for i, s := range p.segs {
		length := s.End - s.Start
		pre := numeric.ExpNeg(rate * p.cumExp[i])
		if pre == 0 {
			break // everything after contributes nothing
		}
		slope := rate * s.Vuln
		if slope == 0 {
			sum.Add(pre * length)
			continue
		}
		// int_0^len e^(-pre - slope*u) du = pre * (1-e^(-slope*len))/slope
		sum.Add(pre * numeric.OneMinusExpNeg(slope*length) / slope)
	}
	return sum.Sum(), exposure
}

// wrap returns t modulo period in [0, period).
func wrap(t, period float64) float64 {
	x := math.Mod(t, period)
	if x < 0 {
		x += period
	}
	if x >= period { // Mod can return period due to rounding
		x = 0
	}
	return x
}
