package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 identical outputs across distinct seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("sibling streams agree at step %d", i)
		}
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() []uint64 {
		p := New(99)
		c := p.Split()
		out := make([]uint64, 16)
		for i := range out {
			out[i] = c.Uint64()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split stream not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := New(13)
	const n = 300000
	const rate = 2.5
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1/rate) > 0.01/rate {
		t.Errorf("exp mean = %v, want %v", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.05/(rate*rate) {
		t.Errorf("exp variance = %v, want %v", variance, 1/(rate*rate))
	}
}

func TestExpMemoryless(t *testing.T) {
	// P(X > s+t | X > s) should equal P(X > t): compare tail frequencies.
	r := New(17)
	const n = 400000
	const rate = 1.0
	var tailT, tailSTgivenS, countS int
	const s, tt = 0.7, 0.9
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x > tt {
			tailT++
		}
		if x > s {
			countS++
			if x > s+tt {
				tailSTgivenS++
			}
		}
	}
	pT := float64(tailT) / n
	pCond := float64(tailSTgivenS) / float64(countS)
	if math.Abs(pT-pCond) > 0.01 {
		t.Errorf("memoryless violated: P(X>t)=%v vs P(X>s+t|X>s)=%v", pT, pCond)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(23)
	const n = 200000
	const p = 0.2
	sum := 0.0
	for i := 0; i < n; i++ {
		k := r.Geometric(p)
		if k < 1 {
			t.Fatalf("geometric sample %d < 1", k)
		}
		sum += float64(k)
	}
	mean := sum / n
	if math.Abs(mean-1/p) > 0.05/p {
		t.Errorf("geometric mean = %v, want %v", mean, 1/p)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(29)
	for i := 0; i < 100; i++ {
		if k := r.Geometric(1); k != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", k)
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(37)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(41)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1.0)
	}
	_ = sink
}

func TestExpMomentsAcrossRates(t *testing.T) {
	// Mean, variance, and CV of Exp(rate) across eighteen decades of
	// rate (1e-9 to 1e9): inversion must not lose the distribution's
	// shape at either extreme of the design space's raw-rate range.
	const n = 200000
	for _, rate := range []float64{1e-9, 1e-3, 1.0, 1e3, 1e9} {
		r := New(31)
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := r.Exp(rate)
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		// Standard error of the mean of Exp(rate) is (1/rate)/sqrt(n).
		if math.Abs(mean-1/rate) > 4/(rate*math.Sqrt(n)) {
			t.Errorf("rate %g: mean = %v, want %v", rate, mean, 1/rate)
		}
		cv := math.Sqrt(variance) / mean
		if math.Abs(cv-1) > 0.02 {
			t.Errorf("rate %g: CV = %v, want 1", rate, cv)
		}
	}
}

func TestBoolMoments(t *testing.T) {
	// Bernoulli frequencies across p, bounded by 4 binomial sigmas.
	const n = 200000
	for _, p := range []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.999} {
		r := New(37)
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		sigma := math.Sqrt(p * (1 - p) / n)
		if math.Abs(got-p) > 4*sigma {
			t.Errorf("Bool(%v) frequency = %v (|err| > 4 sigma = %v)", p, got, 4*sigma)
		}
	}
}

func TestBoolDegenerate(t *testing.T) {
	r := New(41)
	for i := 0; i < 1000; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	// Reseed must reproduce New's stream exactly, from any prior state:
	// the trial loop relies on one reused Rand being bit-identical to a
	// freshly allocated one per trial.
	r := New(999)
	for i := 0; i < 17; i++ {
		r.Uint64() // scramble the state
	}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		r.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 256; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d: Reseed diverged from New at step %d: %x != %x", seed, i, got, want)
			}
		}
	}
}

func TestReseedDoesNotAllocate(t *testing.T) {
	r := New(1)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Reseed(7)
		_ = r.Uint64()
	})
	if allocs != 0 {
		t.Errorf("Reseed allocates %v times per call, want 0", allocs)
	}
}
