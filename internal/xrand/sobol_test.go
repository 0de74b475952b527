package xrand

import (
	"math"
	"testing"
)

func TestNewSobolBounds(t *testing.T) {
	for _, dims := range []int{0, -1, MaxSobolDims + 1} {
		if _, err := NewSobol(dims); err == nil {
			t.Errorf("NewSobol(%d): want error, got nil", dims)
		}
	}
	s, err := NewSobol(MaxSobolDims)
	if err != nil {
		t.Fatalf("NewSobol(%d): %v", MaxSobolDims, err)
	}
	if s.Dims() != MaxSobolDims {
		t.Fatalf("Dims() = %d, want %d", s.Dims(), MaxSobolDims)
	}
}

// TestSobolDirectionDiagonal checks the structural invariant that makes
// every dimension a (0,1)-sequence: the direction matrix is upper
// triangular with ones on the diagonal, i.e. direction number k has bit
// (31-k) set and no lower bits.
func TestSobolDirectionDiagonal(t *testing.T) {
	s, err := NewSobol(MaxSobolDims)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.Dims(); j++ {
		for k := 0; k < 32; k++ {
			v := s.v[j][k]
			if v&(1<<(31-uint(k))) == 0 {
				t.Fatalf("dim %d direction %d = %#x: diagonal bit clear (m_k even)", j, k, v)
			}
			if v&(1<<(31-uint(k))-1) != 0 {
				t.Fatalf("dim %d direction %d = %#x: bits below the diagonal set", j, k, v)
			}
		}
	}
}

// TestSobolClassicPrimitive checks that every hard-coded classical
// polynomial row really is primitive — a typo in the table would break
// the sequence quality silently.
func TestSobolClassicPrimitive(t *testing.T) {
	for i, row := range sobolClassic {
		if !primitiveGF2(row.s, row.a) {
			t.Errorf("classic row %d: polynomial (s=%d, a=%d) not primitive", i, row.s, row.a)
		}
		if len(row.m) != row.s {
			t.Errorf("classic row %d: %d initial values for degree %d", i, len(row.m), row.s)
		}
		for k, m := range row.m {
			if m%2 == 0 || m >= 1<<(uint(k)+1) {
				t.Errorf("classic row %d: m[%d] = %d invalid", i, k, m)
			}
		}
	}
}

// TestSobolStratification is the core (0,1)-sequence property, which
// Owen scrambling preserves: for every dimension, the first 2^k points
// land exactly one per dyadic interval of width 2^-k.
func TestSobolStratification(t *testing.T) {
	s, err := NewSobol(MaxSobolDims)
	if err != nil {
		t.Fatal(err)
	}
	ss := s.Scrambled(12345, make([]uint32, s.Dims()))
	pt := make([]float64, s.Dims())
	for _, k := range []uint{1, 4, 8, 12} {
		n := uint64(1) << k
		hit := make([][]bool, s.Dims())
		for j := range hit {
			hit[j] = make([]bool, n)
		}
		for i := uint64(0); i < n; i++ {
			ss.Point(i, pt)
			for j, x := range pt {
				if x <= 0 || x >= 1 {
					t.Fatalf("point %d dim %d = %g outside (0,1)", i, j, x)
				}
				cell := uint64(x * float64(n))
				if hit[j][cell] {
					t.Fatalf("level %d dim %d: cell %d hit twice by point %d", k, j, cell, i)
				}
				hit[j][cell] = true
			}
		}
	}
}

// TestSobolPairwiseMoments mirrors the PCG moment tests: over the first
// 4096 scrambled points, each coordinate's mean is near 1/2 and each
// adjacent-pair product mean is near 1/4 (independence of projections).
// Tolerances are far tighter than Monte-Carlo at the same n would
// allow, which is the point of the sequence.
func TestSobolPairwiseMoments(t *testing.T) {
	s, err := NewSobol(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 99, 0xdeadbeef} {
		ss := s.Scrambled(seed, make([]uint32, s.Dims()))
		pt := make([]float64, s.Dims())
		const n = 4096
		mean := make([]float64, s.Dims())
		prod := make([]float64, s.Dims()-1)
		for i := uint64(0); i < n; i++ {
			ss.Point(i, pt)
			for j, x := range pt {
				mean[j] += x
				if j+1 < len(pt) {
					prod[j] += x * pt[j+1]
				}
			}
		}
		for j := range mean {
			mean[j] /= n
			if math.Abs(mean[j]-0.5) > 2e-3 {
				t.Errorf("seed %d dim %d: mean %.6f, want 0.5 +- 2e-3", seed, j, mean[j])
			}
		}
		for j := range prod {
			prod[j] /= n
			if math.Abs(prod[j]-0.25) > 4e-3 {
				t.Errorf("seed %d dims (%d,%d): E[xy] %.6f, want 0.25 +- 4e-3", seed, j, j+1, prod[j])
			}
		}
	}
}

// TestSobolScrambleDeterminism: equal seeds give bit-identical
// sequences, distinct seeds give distinct ones.
func TestSobolScrambleDeterminism(t *testing.T) {
	s, err := NewSobol(8)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Scrambled(42, make([]uint32, s.Dims()))
	b := s.Scrambled(42, make([]uint32, s.Dims()))
	c := s.Scrambled(43, make([]uint32, s.Dims()))
	pa := make([]float64, 8)
	pb := make([]float64, 8)
	pc := make([]float64, 8)
	differs := false
	for i := uint64(0); i < 256; i++ {
		a.Point(i, pa)
		b.Point(i, pb)
		c.Point(i, pc)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("point %d dim %d: equal seeds differ (%g vs %g)", i, j, pa[j], pb[j])
			}
			if pa[j] != pc[j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical sequences")
	}
}

// TestSobolPointDoesNotAllocate: Point is on the trial hot path and
// must not allocate.
func TestSobolPointDoesNotAllocate(t *testing.T) {
	s, err := NewSobol(4)
	if err != nil {
		t.Fatal(err)
	}
	ss := s.Scrambled(7, make([]uint32, s.Dims()))
	pt := make([]float64, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		ss.Point(123, pt)
	})
	if allocs != 0 {
		t.Fatalf("Point allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkSobolPoint2D(b *testing.B) {
	s, err := NewSobol(2)
	if err != nil {
		b.Fatal(err)
	}
	ss := s.Scrambled(1, make([]uint32, s.Dims()))
	pt := make([]float64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ss.Point(uint64(i), pt)
	}
}
