package numeric

import (
	"math"
	"testing"
)

func TestExpInvCDF(t *testing.T) {
	cases := []struct{ u, want float64 }{
		{0, 0},
		{0.5, math.Ln2},
		{1 - 1.0/math.E, 1},
	}
	for _, tt := range cases {
		if got := ExpInvCDF(tt.u); math.Abs(got-tt.want) > 1e-14 {
			t.Errorf("ExpInvCDF(%v) = %v, want %v", tt.u, got, tt.want)
		}
	}
	// Stability for tiny u: -log(1-u) = u + u^2/2 + O(u^3) with no
	// cancellation, so the relative deviation from u is ~u/2.
	for _, u := range []float64{1e-18, 1e-12, 1e-9} {
		if got := ExpInvCDF(u); RelErr(got, u) > u+1e-15 {
			t.Errorf("ExpInvCDF(%v) = %v, want ~%v", u, got, u)
		}
	}
}

func TestTruncExpInvCDF(t *testing.T) {
	// The truncated quantile must stay strictly inside [0, bound) and
	// equal the untruncated quantile rescaled through the CDF.
	for _, bound := range []float64{1e-12, 0.1, 5, 100} {
		pmax := OneMinusExpNeg(bound)
		for _, u := range []float64{0, 0.25, 0.5, 0.999999} {
			got := TruncExpInvCDF(u, pmax)
			if got < 0 || got >= bound {
				t.Errorf("TruncExpInvCDF(%v, bound %v) = %v outside [0, bound)", u, bound, got)
			}
			want := ExpInvCDF(u * pmax)
			if math.Abs(got-want) > 1e-14*math.Max(1, want) {
				t.Errorf("TruncExpInvCDF(%v, %v) = %v, want %v", u, pmax, got, want)
			}
		}
	}
}

// twoPassMeanStdErr is the textbook two-pass sample mean and standard
// error, the oracle the streaming accumulator is checked against.
func twoPassMeanStdErr(xs []float64) (mean, stderr float64) {
	n := float64(len(xs))
	var sum, sq KahanSum
	for _, x := range xs {
		sum.Add(x)
	}
	mean = sum.Sum() / n
	for _, x := range xs {
		sq.Add((x - mean) * (x - mean))
	}
	return mean, math.Sqrt(sq.Sum() / (n - 1) / n)
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	// Known answer: sample stddev sqrt(32/7), stderr that / sqrt(8).
	mean, se := twoPassMeanStdErr([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if want := math.Sqrt(32.0/7.0) / math.Sqrt(8); mean != 5 || RelErr(se, want) > 1e-12 {
		t.Fatalf("two-pass oracle = (%v, %v), want (5, %v)", mean, se, want)
	}

	xs := []float64{3, 1, 4, 1, 5, 9, 2.5, 6, 5.25, 3.5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean, se = twoPassMeanStdErr(xs)
	if RelErr(w.Mean(), mean) > 1e-13 {
		t.Errorf("Welford mean %v vs two-pass %v", w.Mean(), mean)
	}
	if RelErr(w.StdErr(), se) > 1e-13 {
		t.Errorf("Welford stderr %v vs two-pass %v", w.StdErr(), se)
	}
	if w.Count() != int64(len(xs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(xs))
	}
}

func TestWelfordMerge(t *testing.T) {
	// Merging chunked accumulators must equal one sequential pass,
	// whatever the chunk boundaries (including empty chunks).
	xs := make([]float64, 1000)
	for i := range xs {
		// Deterministic ill-conditioned data: large offset, small spread.
		xs[i] = 1e9 + math.Sin(float64(i))
	}
	var whole Welford
	for _, x := range xs {
		whole.Add(x)
	}
	for _, chunks := range []int{1, 3, 7, 1000} {
		var merged Welford
		size := (len(xs) + chunks - 1) / chunks
		for lo := 0; lo < len(xs); lo += size {
			hi := lo + size
			if hi > len(xs) {
				hi = len(xs)
			}
			var part Welford
			for _, x := range xs[lo:hi] {
				part.Add(x)
			}
			merged.Merge(part)
		}
		merged.Merge(Welford{}) // empty merge is a no-op
		if RelErr(merged.Mean(), whole.Mean()) > 1e-12 {
			t.Errorf("%d chunks: mean %v vs %v", chunks, merged.Mean(), whole.Mean())
		}
		if RelErr(merged.Variance(), whole.Variance()) > 1e-6 {
			t.Errorf("%d chunks: variance %v vs %v", chunks, merged.Variance(), whole.Variance())
		}
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.StdErr()) {
		t.Error("empty accumulator should report NaN")
	}
	w.Add(7)
	if w.Mean() != 7 || w.StdErr() != 0 || w.Variance() != 0 {
		t.Errorf("single sample: mean %v stderr %v", w.Mean(), w.StdErr())
	}
	var into Welford
	into.Merge(w) // merge into empty adopts the other side
	if into.Mean() != 7 || into.Count() != 1 {
		t.Errorf("merge into empty: %+v", into)
	}
}
