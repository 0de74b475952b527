package numeric

import "math"

// ExpInvCDF returns the standard-exponential quantile -log(1-u) for
// u in [0, 1), using log1p so that small u (the common case: most
// uniform draws are far from 1) loses no precision to cancellation.
//
//soferr:hotpath
func ExpInvCDF(u float64) float64 { return -math.Log1p(-u) }

// TruncExpInvCDF returns the quantile of a standard exponential
// conditioned on being below the value whose CDF is pmax: the inverse
// CDF of Exp(1) truncated to [0, -log(1-pmax)), evaluated at u in
// [0, 1). pmax is passed as a probability (1 - e^(-bound)) rather than
// as the bound itself so callers can compute it once with
// OneMinusExpNeg and keep full precision when the bound is tiny.
//
//soferr:hotpath
func TruncExpInvCDF(u, pmax float64) float64 { return -math.Log1p(-u * pmax) }

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm) with exact-merge support (Chan et al.), so per-worker
// accumulators can be combined without materializing samples. The zero
// value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add accumulates one observation.
//
//soferr:hotpath
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w. The result is identical (up
// to floating-point association) to having accumulated o's samples
// after w's.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean (NaN if empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (0 for a single
// sample, NaN when empty).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		if w.n == 1 {
			return 0
		}
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	if w.n == 1 {
		return 0
	}
	return math.Sqrt(w.Variance() / float64(w.n))
}
