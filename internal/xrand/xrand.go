// Package xrand provides the deterministic random-number streams used by
// the Monte-Carlo engine, the workload generators, and the timing
// simulator.
//
// Requirements that the standard library does not meet directly:
//
//   - Splittable streams: a parent stream must be able to derive many
//     child streams (one per Monte-Carlo worker, one per benchmark
//     generator) such that the children are statistically independent and
//     the whole tree is reproducible from a single root seed.
//   - Stability: results must not depend on the Go release's internal
//     rand source.
//
// The generator is PCG-XSH-RR 64/32 on a 64-bit LCG state with a
// per-stream increment, the same construction as the reference PCG
// family. Seeding and splitting use SplitMix64 so that small or
// correlated user seeds still produce well-mixed streams.
//
//soferr:deterministic
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random stream. The zero value is not
// valid; use New or Split.
type Rand struct {
	state uint64
	inc   uint64 // odd
}

// New returns a stream seeded from seed. Distinct seeds give
// independent-looking streams; the same seed reproduces the same stream.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets r in place to the exact stream New(seed) would return.
// It exists so hot loops that need one fresh stream per iteration (the
// Monte-Carlo trial loop derives a stream per trial index) can reuse a
// single Rand value instead of allocating one per iteration.
//
//soferr:hotpath
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	r.state = splitmix64(&sm)
	r.inc = splitmix64(&sm) | 1
	r.next32() // advance past the seed-correlated first output
}

// Split derives a child stream from r. The child is independent of
// subsequent output of r, and repeated Splits yield distinct streams.
func (r *Rand) Split() *Rand {
	// Derive the child from two parent outputs through SplitMix64 so the
	// child's (state, inc) pair is decorrelated from the parent sequence.
	sm := r.Uint64()
	state := splitmix64(&sm)
	sm ^= r.Uint64()
	inc := splitmix64(&sm) | 1
	c := &Rand{state: state, inc: inc}
	c.next32()
	return c
}

// next32 returns the next 32 raw bits (PCG-XSH-RR output function).
//
//soferr:hotpath
func (r *Rand) next32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
//
//soferr:hotpath
func (r *Rand) Uint64() uint64 {
	hi := uint64(r.next32())
	lo := uint64(r.next32())
	return hi<<32 | lo
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
//
//soferr:hotpath
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1): never exactly zero, so
// it is safe as the argument of a logarithm.
//
//soferr:hotpath
func (r *Rand) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection keeps the result unbiased.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	threshold := -bound % bound
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0 or is not finite.
//
//soferr:hotpath
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
		panic("xrand: Exp with non-positive or non-finite rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Geometric returns the 1-based count of Bernoulli(p) trials up to and
// including the first success. It panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 1
	}
	// Inversion: ceil(log(U)/log(1-p)) is geometric on {1,2,...}.
	u := r.Float64Open()
	k := math.Ceil(math.Log(u) / math.Log1p(-p))
	if k < 1 {
		k = 1
	}
	const maxInt = int(^uint(0) >> 1)
	if k > float64(maxInt) {
		return maxInt
	}
	return int(k)
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
