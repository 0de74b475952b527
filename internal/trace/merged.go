package trace

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"

	"github.com/soferr/soferr/internal/numeric"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errMergedShape     = errors.New("trace: NewMergedExposure needs equal non-zero numbers of rates and traces")
	errMergedNoFailure = errors.New("trace: NewMergedExposure with no component that can fail")
)

// MergedExposure is a system-level cumulative-hazard table: the
// superposition of several components' thinned Poisson processes,
// precomputed so that the first failure time of the whole series system
// can be sampled with one Exp(1) draw and one binary search.
//
// Each component i is a raw Poisson process of rate lambda_i thinned by
// a periodic vulnerability v_i(t); its failure process is inhomogeneous
// Poisson with cumulative hazard lambda_i * m_i(t). Independent Poisson
// processes superpose, so the system's first failure is the first
// arrival of the process with cumulative hazard
//
//	H(t) = sum_i lambda_i * m_i(t),
//
// which is itself periodic with period equal to the components'
// hyperperiod (the least common multiple of their periods). The merge
// aligns every component's segment grid on that hyperperiod and stores
// one sorted table of constant-hazard-rate segments with prefix sums,
// so H and its generalized inverse cost O(log S_total) — independent of
// the component count, the raw rates, and the AVFs.
//
// Construction requires commensurate periods. Every float64 is a
// dyadic rational, so the hyperperiod is computed exactly (math/big);
// "incommensurate" in practice means the exact hyperperiod would need
// more repetitions or merged segments than the configured cap, which
// returns ErrIncommensurate rather than materializing an enormous (or
// astronomically imprecise) table.
type MergedExposure struct {
	period float64
	// starts[i] is the start of segment i; starts[len] == period.
	starts []float64
	// haz[i] is the constant hazard rate (1/second) on segment i.
	haz []float64
	// cumHaz[i] is H(starts[i]); cumHaz[len] is the per-period hazard.
	cumHaz []float64
}

// ErrIncommensurate is returned by NewMergedExposure when the
// components' periods have no usable common hyperperiod: the exact LCM
// exists (float64 periods are rational) but would require more period
// repetitions or merged segments than the cap allows.
var ErrIncommensurate = errors.New("trace: periods are incommensurate (no usable common hyperperiod)")

// ErrMergedTooLarge is returned by NewMergedExposure when the periods
// are commensurate with a small repetition count but the merged table
// would still exceed the segment cap (many segment-rich traces).
var ErrMergedTooLarge = errors.New("trace: merged hazard table exceeds the segment cap")

// DefaultMaxMergedSegments bounds the merged table when the caller
// passes no explicit cap: large enough for hundreds of simulator traces
// (~10^4 segments each), small enough that a pathological period
// mixture fails fast instead of exhausting memory.
const DefaultMaxMergedSegments = 1 << 22

// maxMergedReps bounds the per-component repetition count inside one
// hyperperiod. Beyond ~2^40 repetitions the boundary arithmetic
// rep*period loses the low bits that distinguish adjacent segments, so
// larger LCMs are treated as incommensurate.
const maxMergedReps = 1 << 40

// NewMergedExposure merges components (rate_i, trace_i) into one
// system-level hazard table. Rates are in errors/second; every trace
// must be materialized (Piecewise). Components that can never fail
// (zero rate or zero AVF) are legal and contribute nothing.
// maxSegments caps the merged table (0 means
// DefaultMaxMergedSegments).
func NewMergedExposure(rates []float64, traces []*Piecewise, maxSegments int) (*MergedExposure, error) {
	if len(rates) != len(traces) || len(traces) == 0 {
		return nil, errMergedShape
	}
	if maxSegments <= 0 {
		maxSegments = DefaultMaxMergedSegments
	}
	// Drop components that contribute no hazard; they only widen the
	// hyperperiod for nothing.
	var live []*Piecewise
	var liveRates []float64
	for i, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("trace: NewMergedExposure trace %d is nil", i)
		}
		if rates[i] < 0 || math.IsNaN(rates[i]) || math.IsInf(rates[i], 0) {
			return nil, fmt.Errorf("trace: NewMergedExposure rate %d is invalid: %v", i, rates[i])
		}
		if rates[i] == 0 || tr.AVF() == 0 {
			continue
		}
		live = append(live, tr)
		liveRates = append(liveRates, rates[i])
	}
	if len(live) == 0 {
		return nil, errMergedNoFailure
	}
	reps, period, err := hyperperiod(live, maxSegments)
	if err != nil {
		return nil, err
	}
	total := 0
	for i, tr := range live {
		n := reps[i] * int64(len(tr.segs))
		if n > int64(maxSegments) {
			return nil, fmt.Errorf("%w: component %d alone needs %d segments (cap %d)", ErrMergedTooLarge, i, n, maxSegments)
		}
		total += int(n)
		if total > maxSegments {
			return nil, fmt.Errorf("%w: %d+ segments (cap %d)", ErrMergedTooLarge, total, maxSegments)
		}
	}
	return mergeHazard(liveRates, live, reps, period)
}

// hyperperiod computes the exact least common multiple of the traces'
// periods (as dyadic rationals) and the per-trace repetition counts.
// LCMs needing more than maxMergedReps repetitions — or more merged
// boundaries than maxSegments, pre-checked on the repetition counts
// alone — are reported as incommensurate.
func hyperperiod(traces []*Piecewise, maxSegments int) (reps []int64, period float64, err error) {
	// Equal-period fast path (the common case: one workload family).
	equal := true
	for _, tr := range traces[1:] {
		if tr.period != traces[0].period { //soferr:allow floatprec equal-period fast-path probe; a last-ulp mismatch safely falls through to the dyadic LCM path, which handles it exactly
			equal = false
			break
		}
	}
	if equal {
		reps = make([]int64, len(traces))
		for i := range reps {
			reps[i] = 1
		}
		return reps, traces[0].period, nil
	}

	// Exact LCM over rationals: every float64 period is num/den with
	// den a power of two, and lcm(a/b, c/d) = lcm(a,c)/gcd(b,d).
	lcm := new(big.Rat)
	rats := make([]*big.Rat, len(traces))
	for i, tr := range traces {
		r := new(big.Rat).SetFloat64(tr.period)
		if r == nil || r.Sign() <= 0 {
			return nil, 0, fmt.Errorf("trace: NewMergedExposure trace %d has unusable period %v", i, tr.period)
		}
		rats[i] = r
		if i == 0 {
			lcm.Set(r)
			continue
		}
		num := new(big.Int).Mul(lcm.Num(), r.Num())
		num.Div(num, new(big.Int).GCD(nil, nil, lcm.Num(), r.Num()))
		den := new(big.Int).GCD(nil, nil, lcm.Denom(), r.Denom())
		lcm.SetFrac(num, den)
		// Abort early once the hyperperiod is already absurd relative to
		// the shortest period: the reps check below would catch it, but
		// the big.Int products can get expensive first.
		if num.BitLen()-den.BitLen() > 128 {
			return nil, 0, fmt.Errorf("%w: exact LCM needs %d-bit numerators", ErrIncommensurate, num.BitLen())
		}
	}
	reps = make([]int64, len(traces))
	for i, r := range rats {
		q := new(big.Rat).Quo(lcm, r)
		if !q.IsInt() {
			// Cannot happen by construction; guard anyway.
			return nil, 0, fmt.Errorf("%w: internal LCM error", ErrIncommensurate)
		}
		n := q.Num()
		if !n.IsInt64() || n.Int64() > maxMergedReps {
			return nil, 0, fmt.Errorf("%w: trace %d would repeat %s times per hyperperiod", ErrIncommensurate, i, n)
		}
		reps[i] = n.Int64()
		// Each repetition contributes at least one boundary, so this
		// cheap pre-check rejects huge LCMs before any merging.
		if reps[i] > int64(maxSegments) {
			return nil, 0, fmt.Errorf("%w: trace %d repeats %d times per hyperperiod (segment cap %d)", ErrIncommensurate, i, reps[i], maxSegments)
		}
	}
	// The float hyperperiod: reps[0] * period[0]. The exact rational
	// may not be a float64; anchoring on one component keeps all of that
	// component's boundaries exact and the others within an ulp, which
	// the sweep clamps.
	return reps, float64(reps[0]) * traces[0].period, nil
}

// mergeHazard sweeps all traces' segment boundaries (each trace
// repeated reps[i] times) across [0, period) and emits constant-hazard
// segments with prefix sums.
func mergeHazard(rates []float64, traces []*Piecewise, reps []int64, period float64) (*MergedExposure, error) {
	// Per-trace cursor: repetition index and segment index.
	type cursor struct {
		rep int64
		seg int
	}
	cur := make([]cursor, len(traces))
	// next returns the absolute end of the cursor's current segment.
	next := func(i int) float64 {
		c := cur[i]
		return float64(c.rep)*traces[i].period + traces[i].segs[c.seg].End
	}
	m := &MergedExposure{}
	var sum numeric.KahanSum
	t := 0.0
	for t < period {
		h := 0.0
		bound := period
		for i := range traces {
			h += rates[i] * traces[i].segs[cur[i].seg].Vuln
			if b := next(i); b < bound {
				bound = b
			}
		}
		if bound <= t {
			// Rounding produced a non-advancing boundary (distinct
			// periods differing in their last ulp); force progress by
			// skipping the stalled cursors below without emitting an
			// empty segment.
			bound = math.Nextafter(t, math.Inf(1))
		}
		if bound > period {
			bound = period
		}
		if n := len(m.haz); n > 0 && m.haz[n-1] == h { //soferr:allow floatprec coalescing bitwise-identical adjacent hazard rows; a near-equal miss only costs one extra table row, never a wrong value
			// Merge adjacent equal-hazard spans.
		} else {
			m.starts = append(m.starts, t)
			m.haz = append(m.haz, h)
			m.cumHaz = append(m.cumHaz, sum.Sum())
		}
		sum.Add(h * (bound - t))
		t = bound
		for i := range traces {
			for next(i) <= t {
				c := &cur[i]
				c.seg++
				if c.seg == len(traces[i].segs) {
					c.seg = 0
					c.rep++
					if c.rep == reps[i] {
						// Exhausted: park on the last segment so the
						// remaining sweep (at most an ulp) reads its
						// final vulnerability.
						c.rep = reps[i] - 1
						c.seg = len(traces[i].segs) - 1
						break
					}
				}
			}
		}
	}
	m.period = period
	m.starts = append(m.starts, period)
	m.cumHaz = append(m.cumHaz, sum.Sum())
	return m, nil
}

// Period returns the hyperperiod in seconds.
func (m *MergedExposure) Period() float64 { return m.period }

// NumSegments returns the number of constant-hazard segments.
func (m *MergedExposure) NumSegments() int { return len(m.haz) }

// Total returns H(Period): the cumulative hazard of one hyperperiod.
func (m *MergedExposure) Total() float64 { return m.cumHaz[len(m.haz)] }

// CumHazard returns H(x) for x in [0, Period]: the expected number of
// system failures (unmasked arrivals across all components) in [0, x).
//
//soferr:hotpath
func (m *MergedExposure) CumHazard(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= m.period {
		return m.cumHaz[len(m.haz)]
	}
	i := sort.Search(len(m.haz), func(i int) bool { return m.starts[i+1] > x })
	if i == len(m.haz) {
		i = len(m.haz) - 1
	}
	return m.cumHaz[i] + (x-m.starts[i])*m.haz[i]
}

// SurvivalIntegral returns the one-hyperperiod survival integral
//
//	int_0^Period exp(-H(s)) ds
//
// in closed form: H is piecewise linear, so each constant-hazard
// segment contributes exp(-H(start)) * (1-exp(-haz*len))/haz (or
// exp(-H(start))*len where the hazard is zero), summed with
// compensated accumulation. Together with Total() this is sufficient
// for the exact system MTTF: the integrand is periodic up to the
// geometric factor exp(-H(Period)) per hyperperiod, so
//
//	MTTF = SurvivalIntegral() / (1 - exp(-Total())).
//
// Segments past the point where exp(-H(start)) underflows to zero
// contribute nothing and are skipped.
func (m *MergedExposure) SurvivalIntegral() float64 {
	var sum numeric.KahanSum
	for i, h := range m.haz {
		length := m.starts[i+1] - m.starts[i]
		pre := numeric.ExpNeg(m.cumHaz[i])
		if pre == 0 {
			break // everything after contributes nothing
		}
		if h == 0 {
			sum.Add(pre * length)
			continue
		}
		// int_0^len e^(-H(start) - h*u) du = pre * (1-e^(-h*len))/h
		sum.Add(pre * numeric.OneMinusExpNeg(h*length) / h)
	}
	return sum.Sum()
}

// TTFShape returns the shape of the system's first failure time T in
// closed form, in one pass over the table with no sampling and no
// quadrature: its mean, its second moment E[T^2], and the
// Kolmogorov-Smirnov distance between its law and the exponential of
// equal mean. With q = e^(-Total()), P = Period() and the
// one-hyperperiod integrals I0 = int_0^P e^(-H(s)) ds (which
// SurvivalIntegral returns) and I1 = int_0^P s*e^(-H(s)) ds, summing
// the survival function's geometric fold over hyperperiods gives
//
//	mean   = I0/(1-q)
//	E[T^2] = 2*int_0^inf t*e^(-H(t)) dt = 2*(P*I0*q/(1-q)^2 + I1/(1-q))
//	ks     = sup_t |e^(-t/mean) - e^(-H(t))|
//
// The supremum is a maximum over O(1) closed-form candidates per
// segment (see ksExponential). DESIGN.md, "TTF shape", derives all
// three. A table whose per-period hazard underflowed to zero never
// fails: it returns an infinite mean and second moment and a zero
// distance.
func (m *MergedExposure) TTFShape() (mean, second, ks float64) {
	total := m.Total()
	if total == 0 {
		return math.Inf(1), math.Inf(1), 0
	}
	var i0, i1 numeric.KahanSum
	for i, h := range m.haz {
		pre := numeric.ExpNeg(m.cumHaz[i])
		if pre == 0 {
			break // everything after contributes nothing
		}
		start, length := m.starts[i], m.starts[i+1]-m.starts[i]
		// pre * int_0^len e^(-h*u) du, spelled as in SurvivalIntegral so
		// that the mean is SurvivalIntegral()/(1-q) to the last bit.
		term := pre * length
		if h != 0 {
			term = pre * numeric.OneMinusExpNeg(h*length) / h
		}
		i0.Add(term)
		// pre * int_0^len (start+u)*e^(-h*u) du
		i1.Add(start*term + pre*length*length*phi1(h*length))
	}
	// 1-q through expm1, as the Exact MTTF's denominator: literal
	// 1-e^(-Total()) cancels for tiny per-period hazards.
	oneMinusQ := numeric.OneMinusExpNeg(total)
	q := numeric.ExpNeg(total)
	mean = i0.Sum() / oneMinusQ
	second = 2 * (m.period*i0.Sum()*q/(oneMinusQ*oneMinusQ) + i1.Sum()/oneMinusQ)
	return mean, second, m.ksExponential(mean)
}

// phi1 returns (1 - e^(-x)*(1+x))/x^2, the normalized first moment of
// a truncated exponential: int_0^L u*e^(-h*u) du = L^2*phi1(h*L). The
// direct form loses about 2*eps/x relative to cancellation, so below
// x = 1e-2 the alternating series sum_n (-x)^n/(n!*(n+2)) takes over,
// truncated after x^5, where the first dropped term is below 4e-16
// relative.
func phi1(x float64) float64 {
	if x < 1e-2 {
		return 0.5 + x*(-1.0/3+x*(1.0/8+x*(-1.0/30+x*(1.0/144-x/840))))
	}
	return (numeric.OneMinusExpNeg(x) - x*numeric.ExpNeg(x)) / (x * x)
}

// ksExponential returns sup over t >= 0 of |e^(-t/mean) - e^(-H(t))|,
// with H extended past the hyperperiod by H(k*P + s) = k*H(P) + H(s).
// On segment i (start a, rate h, H(a) = Hi) the difference at
// t = k*P + s is a difference of two exponentials, so its extremes lie
// among these candidates:
//
//   - the segment start at k = 0, floor(k*) and ceil(k*): as a function
//     of k the start's difference A*x^k - B*y^k has one stationary
//     point, k* = (a/mean - Hi + ln(mean*H(P)/P)) / (H(P) - P/mean),
//     and tends to 0, so its largest magnitude over integers is at 0
//     or next to k*. Segment ends are the next segment's starts.
//   - the in-segment stationary point
//     s*(k) = (ln(mean*h) - Hi + h*a + k*(P/mean - H(P))) / (h - 1/mean)
//     where h > 0 and h != 1/mean, at the smallest and largest k that
//     place it inside the segment: there the difference is
//     (1 - 1/(mean*h))*e^(-t/mean) with t linear in k, so it is
//     monotone along the locus.
func (m *MergedExposure) ksExponential(mean float64) float64 {
	period, total := m.period, m.Total()
	ks := 0.0
	// consider folds in the difference at t = k*P + s, s in segment i.
	// A NaN (from a degenerate candidate) compares false and is dropped.
	consider := func(k float64, i int, s float64) {
		t := k*period + s
		h := k*total + m.cumHaz[i] + (s-m.starts[i])*m.haz[i]
		if d := math.Abs(numeric.ExpNeg(t/mean) - numeric.ExpNeg(h)); d > ks {
			ks = d
		}
	}
	lnRatio := math.Log(mean * total / period)
	kDen := total - period/mean
	for i, h := range m.haz {
		a, hi := m.starts[i], m.cumHaz[i]
		end := m.starts[i+1]
		consider(0, i, a)
		if k := (a/mean - hi + lnRatio) / kDen; k > 0 {
			consider(math.Floor(k), i, a)
			consider(math.Ceil(k), i, a)
		}
		d := h - 1/mean
		if h == 0 || d == 0 {
			continue // monotone within the segment: its ends suffice
		}
		// s*(k) = c0 + c1*k; keep the k >= 0 that place it in [a, end].
		c0 := (math.Log(mean*h) - hi + h*a) / d
		c1 := (period/mean - total) / d
		var lo, up float64
		switch {
		case c1 > 0:
			lo, up = (a-c0)/c1, (end-c0)/c1
		case c1 < 0:
			lo, up = (end-c0)/c1, (a-c0)/c1
		case c0 >= a && c0 <= end:
			lo, up = 0, 0 // s* does not move with k, and t grows with it
		default:
			continue
		}
		kLo, kUp := math.Ceil(math.Max(lo, 0)), math.Floor(up)
		if !(kLo <= kUp) {
			continue
		}
		consider(kLo, i, min(max(c0+c1*kLo, a), end))
		if !math.IsInf(kUp, 1) {
			consider(kUp, i, min(max(c0+c1*kUp, a), end))
		}
	}
	return ks
}

// Invert is the right-continuous generalized inverse of CumHazard: the
// first instant x in [0, Period] at which the hazard accumulates beyond
// h, clamped to Period for h >= Total. Zero-hazard segments accumulate
// nothing, so the inverse jumps across them — failures only land at
// instants where some component is vulnerable. One binary search over
// the prefix sums makes this O(log S).
//
//soferr:hotpath
func (m *MergedExposure) Invert(h float64) float64 {
	total := m.cumHaz[len(m.haz)]
	if h < 0 {
		h = 0
	}
	if h >= total {
		return m.period
	}
	i := sort.Search(len(m.haz), func(i int) bool { return m.cumHaz[i+1] > h })
	// cumHaz[i+1] > cumHaz[i] implies haz[i] > 0.
	x := m.starts[i] + (h-m.cumHaz[i])/m.haz[i]
	if x > m.starts[i+1] {
		x = m.starts[i+1]
	}
	return x
}

// InvertSortedInto resolves a whole batch of hazard targets in one
// forward sweep: hs must be sorted ascending, and the inverse of hs[p]
// is written to res[idx[p]] (idx scatters results back to the caller's
// original order after an argsort). Each element receives exactly
// Invert(hs[p]) — bit-identical, same segment, same arithmetic — but
// the lookup is a monotone galloping cursor instead of a fresh binary
// search: from the previous element's segment, doubling steps bracket
// the next target and a binary search pins it inside the bracket, so
// each element costs O(log gap) where gap is the segment distance to
// the previous target — O(B) total when sorted targets cluster, and
// never worse than B fresh O(log S) searches when they spread across a
// segment-rich table. No trial path uses it: a batched Monte-Carlo
// trial kernel built on this sweep measured no faster than scalar
// Invert calls and was removed. It stays because the benchmark module
// (perfbench) times sorted inversion with it; FuzzBatchedInversion
// asserts the equivalence on random tables.
//
// hs and idx must have equal length and res must be at least as long as
// every idx entry requires; unsorted input silently produces values for
// wrong segments (the caller owns the sort).
//
//soferr:hotpath
func (m *MergedExposure) InvertSortedInto(hs []float64, idx []int, res []float64) {
	total := m.cumHaz[len(m.haz)]
	last := len(m.haz) - 1
	c := 0
	for p, h := range hs {
		if h < 0 {
			h = 0 // clamping preserves the sorted order
		}
		if h >= total {
			// Sorted input: every later element lands here too, but the
			// per-element check keeps the loop branch-free of state.
			res[idx[p]] = m.period
			continue
		}
		// Find the first segment at or after the cursor whose cumulative
		// hazard exceeds h — the exact index Invert's sort.Search finds
		// (h < total guarantees one exists). Gallop past known-too-small
		// indices, then binary-search the bracket: every index below
		// c+off/2+1 was seen to be too small, and c+off is either past
		// the end or known to suffice.
		if m.cumHaz[c+1] <= h {
			off := 1
			for c+off < last && m.cumHaz[c+off+1] <= h {
				off <<= 1
			}
			lo, hi := c+off/2+1, c+off
			if hi > last {
				hi = last
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if m.cumHaz[mid+1] <= h {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			c = lo
		}
		x := m.starts[c] + (h-m.cumHaz[c])/m.haz[c]
		if x > m.starts[c+1] {
			x = m.starts[c+1]
		}
		res[idx[p]] = x
	}
}
