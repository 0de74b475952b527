package trace

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/soferr/soferr/internal/xrand"
)

// FuzzBatchedInversion builds a merged hazard table from fuzzed
// busy/idle components, draws a fuzzed batch of hazard targets
// (including out-of-range and duplicate values), and asserts that the
// batched forward sweep returns bit-identical results to a loop of
// scalar Invert calls — the equivalence the benchmark's sorted-inversion
// timing relies on.
func FuzzBatchedInversion(f *testing.F) {
	f.Add(1.0, 0.5, 1.0, 0.25, 3.0, 7.0, uint64(1), uint8(16))
	f.Add(86400.0, 28800.0, 604800.0, 432000.0, 1e-8, 2e-8, uint64(42), uint8(64))
	f.Add(2.0, 1.0, 2.0, 0.0, 5.0, 5.0, uint64(7), uint8(255))
	f.Add(0.3, 0.1, 0.7, 0.2, 1.0, 1.0, uint64(99), uint8(1))
	f.Add(1e-6, 5e-7, 3.0, 1.5, 100.0, 1.0, uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, p1, b1, p2, b2, r1, r2 float64, seed uint64, n uint8) {
		for _, v := range []float64{p1, b1, p2, b2, r1, r2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if r1 < 0 || r2 < 0 || r1 > 1e12 || r2 > 1e12 || p1 > 1e9 || p2 > 1e9 {
			t.Skip()
		}
		tr1, err := BusyIdle(p1, b1)
		if err != nil {
			t.Skip()
		}
		tr2, err := BusyIdle(p2, b2)
		if err != nil {
			t.Skip()
		}
		m, err := NewMergedExposure([]float64{r1, r2}, []*Piecewise{tr1, tr2}, 1<<16)
		if err != nil {
			if !errors.Is(err, ErrIncommensurate) && !errors.Is(err, ErrMergedTooLarge) &&
				!errors.Is(err, errMergedNoFailure) {
				t.Fatalf("NewMergedExposure returned an untyped error: %v", err)
			}
			return
		}

		// A fuzzed batch of hazard targets: mostly in [0, Total), with
		// deliberate duplicates, negatives, and beyond-total values.
		total := m.Total()
		batch := int(n)
		hs := make([]float64, batch)
		idx := make([]int, batch)
		r := xrand.New(seed)
		for i := range hs {
			switch i % 8 {
			case 5:
				hs[i] = -r.Float64() // below range: clamps to 0
			case 6:
				hs[i] = total * (1 + r.Float64()) // beyond range: clamps to period
			case 7:
				if i > 0 {
					hs[i] = hs[i-1] // exact duplicate
				}
			default:
				hs[i] = r.Float64() * total
			}
			idx[i] = i
		}
		want := make([]float64, batch)
		for i, h := range hs {
			want[i] = m.Invert(h)
		}

		// Argsort: idx[p] becomes the original position of the p-th
		// smallest target.
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(hs[a], hs[b]) })
		sorted := make([]float64, batch)
		for p, i := range idx {
			sorted[p] = hs[i]
		}
		got := make([]float64, batch)
		m.InvertSortedInto(sorted, idx, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batched sweep diverged at %d: got %v, want %v (batch %d, segments %d)",
					i, got[i], want[i], batch, m.NumSegments())
			}
		}
	})
}
