// Package numeric supplies the small numerical-analysis toolkit used by
// the analytic models: adaptive quadrature (for the Section 3.2.2
// min-of-N integral), numerically stable exponential forms (for the
// Derivation 1 closed form across twelve decades of lambda*L), and
// compensated summation for the Monte-Carlo averages.
//
//soferr:deterministic
package numeric

import (
	"errors"
	"math"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errNoBracket = errors.New("numeric: Bisect endpoints do not bracket a root")
)

// ErrNoConvergence is returned when an iterative routine exhausts its
// budget before meeting its tolerance.
var ErrNoConvergence = errors.New("numeric: no convergence")

// OneMinusExpNeg returns 1 - e^(-x) without cancellation for small x.
func OneMinusExpNeg(x float64) float64 { return -math.Expm1(-x) }

// ExpNeg returns e^(-x); it exists for symmetry and to centralize the
// clamp of very large arguments to zero (avoiding denormal noise).
func ExpNeg(x float64) float64 {
	if x > 745 {
		return 0
	}
	return math.Exp(-x)
}

// Integrate computes the definite integral of f over [a, b] by adaptive
// Simpson quadrature with the given relative tolerance.
//
// The refinement criterion uses an absolute error budget derived from
// the magnitude of the whole integral (with a machine-epsilon floor), so
// regions where the integrand vanishes terminate immediately instead of
// recursing forever chasing an unattainable relative error.
func Integrate(f func(float64) float64, a, b, tol float64) (float64, error) {
	if a == b { //soferr:allow floatprec degenerate-interval guard comparing the caller's own bounds for identity; a near-miss interval should still be integrated, not zeroed
		return 0, nil
	}
	if tol <= 0 {
		tol = 1e-10
	}
	fa, fb := f(a), f(b)
	m := (a + b) / 2
	fm := f(m)
	whole := simpson(a, b, fa, fm, fb)

	// First refinement both improves the scale estimate and seeds the
	// recursion.
	lm, rm := (a+m)/2, (m+b)/2
	flm, frm := f(lm), f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	scale := math.Max(math.Abs(whole), math.Abs(left)+math.Abs(right))
	if scale == 0 {
		scale = 1
	}
	eps := tol * scale
	floor := 0x1p-52 * scale // cannot resolve below machine epsilon

	st := adaptiveState{f: f, floor: floor, budget: 4_000_000}
	lv := st.refine(a, m, fa, flm, fm, left, eps/2, 60)
	rv := st.refine(m, b, fm, frm, fb, right, eps/2, 60)
	if st.exhausted {
		return lv + rv, ErrNoConvergence
	}
	return lv + rv, nil
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

// adaptiveState carries the shared evaluation budget of one Integrate
// call.
type adaptiveState struct {
	f         func(float64) float64
	floor     float64
	budget    int
	exhausted bool
}

func (st *adaptiveState) refine(a, b, fa, fm, fb, whole, eps float64, depth int) float64 {
	m := (a + b) / 2
	lm := (a + m) / 2
	rm := (m + b) / 2
	flm, frm := st.f(lm), st.f(rm)
	st.budget -= 2
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	if math.Abs(delta) <= 15*math.Max(eps, st.floor) || depth <= 0 || st.budget <= 0 {
		if depth <= 0 || st.budget <= 0 {
			if math.Abs(delta) > 15*math.Max(eps, st.floor) {
				st.exhausted = true
			}
		}
		return left + right + delta/15
	}
	half := eps / 2
	if half < st.floor {
		half = st.floor
	}
	return st.refine(a, m, fa, flm, fm, left, half, depth-1) +
		st.refine(m, b, fm, frm, fb, right, half, depth-1)
}

// IntegrateToInf integrates f over [a, +inf) for integrands with
// (super-)exponentially decaying tails. It maps the tail through
// x = a + t/(1-t) onto [0, 1).
func IntegrateToInf(f func(float64) float64, a, tol float64) (float64, error) {
	g := func(t float64) float64 {
		if t >= 1 {
			return 0
		}
		u := 1 - t
		x := a + t/u
		w := 1 / (u * u)
		v := f(x) * w
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	return Integrate(g, 0, 1, tol)
}

// KahanSum accumulates float64 values with compensated (Kahan-Babuska)
// summation. The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates x.
//
//soferr:hotpath
func (k *KahanSum) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }

// RelErr returns |got-want| / |want|; if want is zero it returns |got|.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Bisect finds a root of f in [a, b] where f(a) and f(b) have opposite
// signs, to within xtol.
func Bisect(f func(float64) float64, a, b, xtol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, errNoBracket
	}
	for i := 0; i < 200; i++ {
		m := (a + b) / 2
		if b-a <= xtol {
			return m, nil
		}
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if (fm > 0) == (fa > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return (a + b) / 2, ErrNoConvergence
}
