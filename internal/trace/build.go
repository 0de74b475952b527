package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/soferr/soferr/internal/numeric"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errNonPositivePeriod  = errors.New("trace: non-positive period")
	errEmptyBitTrace      = errors.New("trace: empty bit trace")
	errNonPositiveCycle   = errors.New("trace: non-positive cycle duration")
	errEmptyLevelTrace    = errors.New("trace: empty level trace")
	errWeightedUnionShape = errors.New("trace: WeightedUnion needs equal non-zero numbers of weights and traces")
	errAllWeightsZero     = errors.New("trace: all weights zero")
	errConcatEmpty        = errors.New("trace: Concat of nothing")
	errLongLoopEmpty      = errors.New("trace: LongLoop with no phases")
)

// Interval is a half-open vulnerable span [Start, End) used by the
// schedule constructors.
type Interval struct {
	Start float64
	End   float64
}

// Periodic builds a 0/1 trace of the given period in which the listed
// intervals are vulnerable (unmasked) and everything else is masked.
// Intervals must be sorted, non-overlapping, and within [0, period].
func Periodic(period float64, vulnerable []Interval) (*Piecewise, error) {
	if period <= 0 {
		return nil, errNonPositivePeriod
	}
	segs := make([]Segment, 0, 2*len(vulnerable)+1)
	cursor := 0.0
	for i, iv := range vulnerable {
		if iv.Start < cursor {
			return nil, fmt.Errorf("trace: interval %d overlaps or is unsorted", i)
		}
		if iv.End <= iv.Start || iv.End > period {
			return nil, fmt.Errorf("trace: interval %d out of range: [%v, %v)", i, iv.Start, iv.End)
		}
		if iv.Start > cursor {
			segs = append(segs, Segment{Start: cursor, End: iv.Start, Vuln: 0})
		}
		segs = append(segs, Segment{Start: iv.Start, End: iv.End, Vuln: 1})
		cursor = iv.End
	}
	if cursor < period {
		segs = append(segs, Segment{Start: cursor, End: period, Vuln: 0})
	}
	return NewPiecewise(segs)
}

// BusyIdle builds the paper's canonical synthetic loop (Section 3.1.2):
// vulnerable for the first busy seconds of each period, masked for the
// rest.
func BusyIdle(period, busy float64) (*Piecewise, error) {
	if busy < 0 || busy > period {
		return nil, fmt.Errorf("trace: busy %v outside [0, %v]", busy, period)
	}
	if busy == 0 {
		return Never(period)
	}
	return Periodic(period, []Interval{{Start: 0, End: busy}})
}

// Always returns a trace that is vulnerable during the whole period:
// every raw error causes failure (AVF = 1).
func Always(period float64) (*Piecewise, error) {
	return NewPiecewise([]Segment{{Start: 0, End: period, Vuln: 1}})
}

// Never returns a trace that masks every raw error (AVF = 0).
func Never(period float64) (*Piecewise, error) {
	return NewPiecewise([]Segment{{Start: 0, End: period, Vuln: 0}})
}

// FromBits builds a cycle-granularity 0/1 trace: bit i covers
// [i, i+1) * cycleSeconds and is vulnerable when true. Runs of equal
// bits are compressed.
func FromBits(bits []bool, cycleSeconds float64) (*Piecewise, error) {
	if len(bits) == 0 {
		return nil, errEmptyBitTrace
	}
	if cycleSeconds <= 0 {
		return nil, errNonPositiveCycle
	}
	runs := 1
	for i := 1; i < len(bits); i++ {
		if bits[i] != bits[i-1] {
			runs++
		}
	}
	segs := make([]Segment, 0, runs)
	runStart := 0
	for i := 1; i <= len(bits); i++ {
		if i < len(bits) && bits[i] == bits[runStart] {
			continue
		}
		v := 0.0
		if bits[runStart] {
			v = 1.0
		}
		segs = append(segs, Segment{
			Start: float64(runStart) * cycleSeconds,
			End:   float64(i) * cycleSeconds,
			Vuln:  v,
		})
		runStart = i
	}
	return ownPiecewise(segs)
}

// FromLevels builds a trace from per-cycle vulnerability levels in
// [0, 1] (e.g. liveRegisters/totalRegisters for a register file). Runs
// of equal levels are compressed.
func FromLevels(levels []float64, cycleSeconds float64) (*Piecewise, error) {
	if len(levels) == 0 {
		return nil, errEmptyLevelTrace
	}
	if cycleSeconds <= 0 {
		return nil, errNonPositiveCycle
	}
	runs := 1
	for i := 1; i < len(levels); i++ {
		if levels[i] != levels[i-1] {
			runs++
		}
	}
	segs := make([]Segment, 0, runs)
	runStart := 0
	for i := 1; i <= len(levels); i++ {
		if i < len(levels) && levels[i] == levels[runStart] {
			continue
		}
		segs = append(segs, Segment{
			Start: float64(runStart) * cycleSeconds,
			End:   float64(i) * cycleSeconds,
			Vuln:  levels[runStart],
		})
		runStart = i
	}
	return ownPiecewise(segs)
}

// WeightedUnion combines k unit traces of a processor into one
// processor-level trace. A raw error striking the processor belongs to
// unit u with probability weight[u]/sum(weights) (weights are the units'
// raw error rates), and is unmasked iff that unit is vulnerable, so the
// processor's instantaneous vulnerability is the weighted average of the
// units'. All traces must share the same period.
//
// This reduction is exact for both the Monte-Carlo engine (Poisson
// thinning) and the survival integral (rates add), and is what lets a
// multi-unit processor be treated as a single component.
func WeightedUnion(weights []float64, traces []*Piecewise) (*Piecewise, error) {
	if len(weights) != len(traces) || len(traces) == 0 {
		return nil, errWeightedUnionShape
	}
	period := traces[0].period
	totalW := 0.0
	for i, w := range traces {
		if w.period != period { //soferr:allow floatprec period identity is the documented contract: union members must share one period bit for bit, and a near-miss must be rejected, not tolerated
			return nil, fmt.Errorf("trace: period mismatch: trace %d has %v, want %v", i, w.period, period)
		}
		if weights[i] < 0 {
			return nil, fmt.Errorf("trace: negative weight %v", weights[i])
		}
		totalW += weights[i]
	}
	if totalW == 0 {
		return nil, errAllWeightsZero
	}
	// Each output segment ends where some input segment ends.
	total := 0
	for _, tr := range traces {
		total += len(tr.segs)
	}
	idx := make([]int, len(traces))
	segs := make([]Segment, 0, total)
	cursor := 0.0
	for cursor < period {
		// Current vulnerability and the nearest segment end among traces.
		v := 0.0
		next := period
		for k, tr := range traces {
			s := tr.segs[idx[k]]
			v += weights[k] / totalW * s.Vuln
			if s.End < next {
				next = s.End
			}
		}
		if v > 1 {
			v = 1
		}
		segs = append(segs, Segment{Start: cursor, End: next, Vuln: v})
		cursor = next
		for k, tr := range traces {
			if idx[k] < len(tr.segs)-1 && tr.segs[idx[k]].End <= cursor {
				idx[k]++
			}
		}
	}
	// NewPiecewise's copy, unlike segs, holds no spare capacity: the
	// trace may be kept for the life of the process.
	return NewPiecewise(segs)
}

// Concat joins traces back to back into a single period equal to the sum
// of the parts (used to build the paper's "combined" workload from two
// benchmark halves).
func Concat(traces ...*Piecewise) (*Piecewise, error) {
	if len(traces) == 0 {
		return nil, errConcatEmpty
	}
	var segs []Segment
	offset := 0.0
	for _, tr := range traces {
		for _, s := range tr.segs {
			segs = append(segs, Segment{Start: offset + s.Start, End: offset + s.End, Vuln: s.Vuln})
		}
		offset += tr.period
	}
	return NewPiecewise(segs)
}

// LongLoop is a lazy trace: a sequence of phases, each repeating an
// inner materialized trace a (possibly enormous) number of times. It
// represents workloads like the paper's "combined" schedule — a SPEC
// benchmark trace with a sub-millisecond period looping for twelve hours
// — without materializing billions of segments.
type LongLoop struct {
	phases []LoopPhase
	starts []float64 // phase start offsets
	// cumExp[i] is the exposure accumulated before phase i:
	// sum over earlier phases of Reps x Inner.TotalExposure().
	cumExp []float64
	period float64
	avf    float64
}

// LoopPhase repeats Inner Reps times.
type LoopPhase struct {
	Inner *Piecewise
	Reps  int64
}

var _ Trace = (*LongLoop)(nil)

// NewLongLoop builds a lazy loop trace from phases.
func NewLongLoop(phases ...LoopPhase) (*LongLoop, error) {
	if len(phases) == 0 {
		return nil, errLongLoopEmpty
	}
	l := &LongLoop{
		phases: make([]LoopPhase, len(phases)),
		starts: make([]float64, len(phases)+1),
		cumExp: make([]float64, len(phases)+1),
	}
	copy(l.phases, phases)
	var dur, exp numeric.KahanSum
	for i, ph := range phases {
		if ph.Reps <= 0 {
			return nil, fmt.Errorf("trace: phase %d has %d repetitions", i, ph.Reps)
		}
		if ph.Inner == nil {
			return nil, fmt.Errorf("trace: phase %d has nil inner trace", i)
		}
		l.starts[i] = dur.Sum()
		l.cumExp[i] = exp.Sum()
		d := float64(ph.Reps) * ph.Inner.Period()
		dur.Add(d)
		exp.Add(float64(ph.Reps) * ph.Inner.TotalExposure())
	}
	l.starts[len(phases)] = dur.Sum()
	l.cumExp[len(phases)] = exp.Sum()
	l.period = dur.Sum()
	l.avf = exp.Sum() / l.period
	return l, nil
}

// RepeatFor returns the number of repetitions needed for inner to fill
// at least the given duration (at least one).
func RepeatFor(inner *Piecewise, duration float64) int64 {
	n := int64(math.Ceil(duration / inner.Period()))
	if n < 1 {
		n = 1
	}
	return n
}

// Period returns the total loop length.
func (l *LongLoop) Period() float64 { return l.period }

// AVF returns the duration-weighted average of the phase AVFs.
func (l *LongLoop) AVF() float64 { return l.avf }

// VulnAt locates the phase containing t and defers to the inner trace.
//
//soferr:hotpath
func (l *LongLoop) VulnAt(t float64) float64 {
	x := wrap(t, l.period)
	i := l.findPhase(x)
	return l.phases[i].Inner.VulnAt(x - l.starts[i])
}

// findPhase returns the index of the phase containing x in [0, period).
func (l *LongLoop) findPhase(x float64) int {
	lo, hi := 0, len(l.phases)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.starts[mid+1] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(l.phases) {
		lo = len(l.phases) - 1
	}
	return lo
}

// TotalExposure returns m(Period): the expected unmasked exposure of
// one full loop (= AVF x Period), composed from the phases without
// enumerating repetitions.
func (l *LongLoop) TotalExposure() float64 { return l.cumExp[len(l.phases)] }

// Exposure returns m(x), the exposure accumulated over [0, x) for x in
// [0, Period]: whole inner repetitions contribute multiples of the
// inner trace's total exposure, and the remainder is one inner lookup.
func (l *LongLoop) Exposure(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= l.period {
		return l.cumExp[len(l.phases)]
	}
	i := l.findPhase(x)
	ph := l.phases[i]
	inPhase := x - l.starts[i]
	k := math.Floor(inPhase / ph.Inner.Period())
	if k > float64(ph.Reps-1) {
		k = float64(ph.Reps - 1)
	}
	rem := inPhase - k*ph.Inner.Period()
	return l.cumExp[i] + k*ph.Inner.TotalExposure() + ph.Inner.Exposure(rem)
}

// InvertExposure is the right-continuous generalized inverse of
// Exposure, mirroring Piecewise.InvertExposure: the first instant at
// which the loop's exposure accumulates beyond e, clamped to Period for
// e >= TotalExposure(). With it, LongLoop satisfies the Monte-Carlo
// engine's ExposureInverter capability, so day-scale combined schedules
// sample first unmasked arrivals in closed form instead of thinning
// billions of raw arrivals.
//
//soferr:hotpath
func (l *LongLoop) InvertExposure(e float64) float64 {
	total := l.cumExp[len(l.phases)]
	if e < 0 {
		e = 0
	}
	if e >= total {
		return l.period
	}
	// First phase that accumulates beyond e; phases with zero exposure
	// (idle inner traces) are skipped exactly as flat segments are.
	i := sort.Search(len(l.phases), func(i int) bool { return l.cumExp[i+1] > e })
	ph := l.phases[i]
	inPhase := e - l.cumExp[i]
	perRep := ph.Inner.TotalExposure() // > 0 because cumExp advances
	k := math.Floor(inPhase / perRep)
	if k > float64(ph.Reps-1) {
		k = float64(ph.Reps - 1)
	}
	return l.starts[i] + k*ph.Inner.Period() + ph.Inner.InvertExposure(inPhase-k*perRep)
}

// SurvivalIntegral composes the phases analytically: within one phase of
// r repetitions of an inner trace with per-iteration survival integral I
// and per-iteration exposure e, the phase contributes
// I * (1 - q^r)/(1 - q) with q = exp(-e), scaled by the survival
// accumulated in earlier phases.
func (l *LongLoop) SurvivalIntegral(rate float64) (integral, exposure float64) {
	var sum numeric.KahanSum
	expSoFar := 0.0 // rate-weighted exposure accumulated before this phase
	for _, ph := range l.phases {
		inner, e := ph.Inner.SurvivalIntegral(rate)
		r := float64(ph.Reps)
		pre := numeric.ExpNeg(expSoFar)
		if pre > 0 {
			var phaseIntegral float64
			if e == 0 {
				phaseIntegral = inner * r
			} else {
				// sum_{i=0}^{r-1} e^(-i*e) = (1 - e^(-r*e)) / (1 - e^(-e))
				phaseIntegral = inner * numeric.OneMinusExpNeg(r*e) / numeric.OneMinusExpNeg(e)
			}
			sum.Add(pre * phaseIntegral)
		}
		expSoFar += r * e
	}
	return sum.Sum(), expSoFar
}
