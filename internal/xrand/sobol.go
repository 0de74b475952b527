package xrand

import (
	"fmt"
	"math/bits"
	"sync"
)

// This file implements the low-discrepancy side of the package: a Sobol
// digital (t, s)-sequence in base 2 with Owen-style nested uniform
// scrambling. The Monte-Carlo engine plugs it beneath the exposure
// inversion in place of the PCG stream (Config.Sampler = "sobol"), so
// the same closed-form trial kernels integrate over a point set whose
// star discrepancy decays like log(n)^d/n instead of the 1/sqrt(n)
// Monte-Carlo rate.
//
// Construction. Dimension j is generated from a primitive polynomial of
// degree s_j over GF(2) and odd initial direction integers m_1..m_s
// (m_k < 2^k), extended by the classical Sobol recurrence. The first
// dimensions use the classical Bratley-Fox/Joe-Kuo polynomials and
// initial values; higher dimensions draw their polynomials from a
// deterministic enumeration of the remaining primitive polynomials
// (smallest degree first) with initial values from a fixed SplitMix64
// stream. Every dimension is a (0, 1)-sequence in base 2 regardless of
// the m values — the direction matrix is upper triangular with ones on
// the diagonal because every m_k is odd — so one-dimensional
// projections are perfectly stratified by construction, and the
// property tests check the pairwise projections statistically.
//
// Scrambling. Owen's nested uniform scrambling makes every scrambled
// point uniformly distributed on [0,1)^d while preserving the digital
// net structure, which is what turns a deterministic quadrature rule
// into an unbiased estimator with a measurable standard error: K
// independently scrambled replicates of the same sequence give K
// independent estimates whose spread is an honest error bar. The
// implementation is the standard hash-based form (Laine-Karras): the
// bit-reversed value is passed through a hash whose output bits depend
// only on equal-or-lower input bits, which is exactly a random
// permutation of the nested dyadic intervals.

// MaxSobolDims bounds the dimension count of one Sobol sequence. The
// trial kernels need two coordinates per exposure inversion, so this
// covers systems of up to 32 per-component draws; callers needing more
// pad the remaining draws from a PCG stream (see montecarlo).
const MaxSobolDims = 64

// Sobol holds the direction numbers of a d-dimensional Sobol sequence.
// It is immutable after construction and safe for concurrent use; the
// scrambled views returned by Scrambled share it.
type Sobol struct {
	dims int
	// v[j][k] is direction number k (0-based) of dimension j, stored
	// with its leading digit at bit 31.
	v [][32]uint32
}

// sobolClassicRow is one classical (polynomial, initial values) row:
// degree s, interior coefficient bits a, and the initial m values.
type sobolClassicRow struct {
	s int
	a uint32
	m []uint32
}

// sobolClassic lists the classical direction-number rows for the first
// dimensions after the van der Corput dimension (Bratley-Fox, as
// tabulated in Joe & Kuo's new-joe-kuo-6 table).
var sobolClassic = []sobolClassicRow{
	{s: 1, a: 0, m: []uint32{1}},
	{s: 2, a: 1, m: []uint32{1, 3}},
	{s: 3, a: 1, m: []uint32{1, 3, 1}},
	{s: 3, a: 2, m: []uint32{1, 1, 1}},
	{s: 4, a: 1, m: []uint32{1, 1, 3, 3}},
	{s: 4, a: 4, m: []uint32{1, 3, 5, 13}},
	{s: 5, a: 2, m: []uint32{1, 1, 5, 5, 17}},
}

var (
	sobolTableOnce sync.Once
	sobolTable     [][32]uint32
)

// NewSobol returns the shared Sobol sequence truncated to dims
// dimensions. dims must be in [1, MaxSobolDims].
func NewSobol(dims int) (*Sobol, error) {
	if dims < 1 || dims > MaxSobolDims {
		return nil, fmt.Errorf("xrand: NewSobol dims %d outside [1, %d]", dims, MaxSobolDims)
	}
	sobolTableOnce.Do(buildSobolTable)
	return &Sobol{dims: dims, v: sobolTable[:dims]}, nil
}

// Dims returns the dimension count.
func (s *Sobol) Dims() int { return s.dims }

// buildSobolTable constructs direction numbers for all MaxSobolDims
// dimensions: dimension 0 is van der Corput, the next len(sobolClassic)
// use the classical rows, and the rest use enumerated primitive
// polynomials with seeded initial values.
func buildSobolTable() {
	table := make([][32]uint32, MaxSobolDims)
	for k := 0; k < 32; k++ {
		table[0][k] = 1 << (31 - k)
	}
	rows := make([]sobolClassicRow, 0, MaxSobolDims-1)
	rows = append(rows, sobolClassic...)
	used := make(map[[2]uint32]bool, MaxSobolDims)
	for _, r := range rows {
		used[[2]uint32{uint32(r.s), r.a}] = true
	}
	sm := uint64(0x5eed5eed5eed5eed) // fixed: the table is part of the determinism contract
	for deg := 1; len(rows) < MaxSobolDims-1; deg++ {
		for a := uint32(0); a < 1<<(deg-1) && len(rows) < MaxSobolDims-1; a++ {
			if used[[2]uint32{uint32(deg), a}] || !primitiveGF2(deg, a) {
				continue
			}
			m := make([]uint32, deg)
			for k := range m {
				// Any odd m_k < 2^(k+1) preserves the (0,1)-sequence
				// property; draw from the fixed stream.
				m[k] = (uint32(splitmix64(&sm)) | 1) & (1<<(k+1) - 1)
			}
			rows = append(rows, sobolClassicRow{s: deg, a: a, m: m})
		}
	}
	for j, row := range rows {
		table[j+1] = directionNumbers(row)
	}
	sobolTable = table
}

// directionNumbers expands one (polynomial, initial m) row into 32
// direction numbers via the Sobol recurrence
//
//	m_k = 2a_1 m_{k-1} ^ 4a_2 m_{k-2} ^ ... ^ 2^s m_{k-s} ^ m_{k-s}.
func directionNumbers(row sobolClassicRow) [32]uint32 {
	s := row.s
	m := make([]uint32, 32)
	copy(m, row.m)
	for k := s; k < 32; k++ {
		mk := m[k-s] ^ (m[k-s] << uint(s))
		for i := 1; i < s; i++ {
			if row.a>>(uint(s)-1-uint(i))&1 == 1 {
				mk ^= m[k-i] << uint(i)
			}
		}
		m[k] = mk
	}
	var v [32]uint32
	for k := 0; k < 32; k++ {
		v[k] = m[k] << (31 - uint(k))
	}
	return v
}

// primitiveGF2 reports whether the degree-deg polynomial with interior
// coefficient bits a (x^deg + a_1 x^(deg-1) + ... + a_{deg-1} x + 1) is
// primitive over GF(2): x must have order exactly 2^deg - 1 in the
// quotient ring.
func primitiveGF2(deg int, a uint32) bool {
	// poly as a bitmask including the leading and constant terms.
	poly := uint64(1)<<uint(deg) | uint64(a)<<1 | 1
	order := uint64(1)<<uint(deg) - 1
	if polyPowX(order, poly, deg) != 1 {
		return false
	}
	for _, q := range factorize(order) {
		if polyPowX(order/q, poly, deg) == 1 {
			return false
		}
	}
	return true
}

// polyPowX computes x^e mod poly over GF(2), for polynomials of degree
// deg <= 32 (elements fit in uint64 during the multiply).
func polyPowX(e uint64, poly uint64, deg int) uint64 {
	result := uint64(1)
	base := uint64(2) // x
	if deg == 1 {
		base = polyMod(base, poly, deg)
	}
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = polyMod(clmul(result, base), poly, deg)
		}
		base = polyMod(clmul(base, base), poly, deg)
	}
	return result
}

// clmul is carry-less multiplication over GF(2)[x].
func clmul(a, b uint64) uint64 {
	var r uint64
	for ; b != 0; b &= b - 1 {
		r ^= a << uint(bits.TrailingZeros64(b))
	}
	return r
}

// polyMod reduces a modulo poly (degree deg) over GF(2).
func polyMod(a, poly uint64, deg int) uint64 {
	for top := bits.Len64(a) - 1; top >= deg; top = bits.Len64(a) - 1 {
		a ^= poly << uint(top-deg)
	}
	return a
}

// factorize returns the distinct prime factors of n by trial division
// (n <= 2^32 here: polynomial degrees are small).
func factorize(n uint64) []uint64 {
	var fs []uint64
	for p := uint64(2); p*p <= n; p++ {
		if n%p == 0 {
			fs = append(fs, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// raw returns the unscrambled 32-bit Sobol value of dimension j at the
// given index, via the Gray-code XOR form (random access: O(popcount)).
//
//soferr:hotpath
func (s *Sobol) raw(j int, index uint64) uint32 {
	g := uint32(index) ^ uint32(index>>1)
	var x uint32
	for ; g != 0; g &= g - 1 {
		x ^= s.v[j][bits.TrailingZeros32(g)]
	}
	return x
}

// ScrambledSobol is one Owen-scrambled replicate of a Sobol sequence:
// an immutable view combining the shared direction numbers with one
// per-dimension scramble key set. Equal (sequence, seed) pairs produce
// bit-identical points; distinct seeds produce independently scrambled
// replicates. Safe for concurrent use.
type ScrambledSobol struct {
	s     *Sobol
	seeds []uint32
}

// Scrambled returns the Owen-scrambled replicate of s keyed by seed. It
// writes the replicate's per-dimension scramble keys into the
// caller-owned keys (length at least Dims), which the replicate keeps
// and reads, so a caller building many replicates can carve their keys
// out of one slab and hold the replicates in one value slice.
func (s *Sobol) Scrambled(seed uint64, keys []uint32) ScrambledSobol {
	keys = keys[:s.dims]
	sm := seed
	for j := range keys {
		keys[j] = uint32(splitmix64(&sm) >> 32)
	}
	return ScrambledSobol{s: s, seeds: keys}
}

// Point fills pt (len <= Dims) with the scrambled point at the given
// 0-based index. Coordinates are in the open interval (0, 1): the
// scrambled integer is offset by half an ulp of the 32-bit grid, so a
// coordinate can feed a logarithm directly.
//
//soferr:hotpath
func (ss *ScrambledSobol) Point(index uint64, pt []float64) {
	for j := range pt {
		x := owenScramble(ss.s.raw(j, index), ss.seeds[j])
		pt[j] = (float64(x) + 0.5) * 0x1p-32
	}
}

// owenScramble applies hash-based Owen scrambling (Laine-Karras): in
// the bit-reversed domain every output bit depends only on
// equal-or-lower input bits plus the seed, which permutes the nested
// dyadic intervals uniformly.
//
//soferr:hotpath
func owenScramble(x, seed uint32) uint32 {
	x = bits.Reverse32(x)
	x ^= x * 0x3d20adea
	x += seed
	x *= (seed >> 16) | 1
	x ^= x * 0x05526c56
	x ^= x * 0x53a22864
	return bits.Reverse32(x)
}
