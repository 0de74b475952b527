// Package analytic implements the paper's closed-form results:
//
//   - Theorem 1 (Appendix A): the wrapped distribution of an exponential
//     arrival time modulo the loop length L, which tends to uniform as
//     lambda*L -> 0. This underpins the validity proof of the AVF step.
//   - Derivation 1 (Section 3.1.2 / Appendix A): the exact MTTF of a
//     component running an infinite loop that is busy for the first A
//     seconds of each L-second iteration — the counter-example workload
//     behind Figure 3.
//   - The Section 3.2.2 construction behind Figure 4: the exact MTTF of
//     a series system of N components with half-Gaussian time to
//     failure, against the SOFR estimate 1/(N*sqrt(pi)).
package analytic

import (
	"errors"
	"math"

	"github.com/soferr/soferr/internal/dist"
	"github.com/soferr/soferr/internal/numeric"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errNonPositiveRate    = errors.New("analytic: non-positive rate")
	errBusyWindow         = errors.New("analytic: need 0 <= a <= l with l > 0")
	errBusyWindowPositive = errors.New("analytic: need 0 < a <= l")
	errBadN               = errors.New("analytic: need n >= 1")
	errQuadratureFailed   = errors.New("analytic: quadrature failed")
)

// WrappedExpPDF returns the density of X = T mod L at x in [0, L), where
// T is exponential with the given rate (Theorem 1):
//
//	f(x) = rate * e^(-rate*x) / (1 - e^(-rate*L))
//
// As rate*L -> 0 this tends to the uniform density 1/L.
func WrappedExpPDF(rate, l, x float64) float64 {
	if x < 0 || x >= l {
		return 0
	}
	return rate * numeric.ExpNeg(rate*x) / numeric.OneMinusExpNeg(rate*l)
}

// WrappedExpUniformityGap returns the maximum absolute deviation of the
// wrapped density from the uniform density 1/L, scaled by L (so it is a
// dimensionless measure of non-uniformity). It vanishes as rate*L -> 0,
// which is Theorem 1's statement. No experiment tabulates it: it and
// WrappedExpPDF are kept as Theorem 1's named test oracle, which the
// package's tests hold to the theorem.
func WrappedExpUniformityGap(rate, l float64) float64 {
	// The wrapped density is monotone decreasing; its extremes are at 0
	// and at L^-.
	at0 := WrappedExpPDF(rate, l, 0)
	atL := WrappedExpPDF(rate, l, math.Nextafter(l, 0))
	u := 1 / l
	return l * math.Max(math.Abs(at0-u), math.Abs(atL-u))
}

// BusyIdleMTTF returns the exact MTTF (Derivation 1) of a component
// whose workload loop has iteration length l seconds, busy (vulnerable)
// for the first a seconds of every iteration, under a raw error process
// of the given rate.
//
// The paper's closed form simplifies algebraically to
//
//	E(X) = 1/rate + (l-a) * e^(-rate*a) / (1 - e^(-rate*a))
//
// which is the form evaluated here (stable for rate*l from 1e-12 to
// 1e3). BusyIdleMTTFPaperForm evaluates the paper's original expression
// term by term; the two are property-tested for equality.
func BusyIdleMTTF(rate, l, a float64) (float64, error) {
	if rate <= 0 {
		return 0, errNonPositiveRate
	}
	if l <= 0 || a < 0 || a > l {
		return 0, errBusyWindow
	}
	if a == 0 {
		return math.Inf(1), nil // never vulnerable
	}
	ea := numeric.ExpNeg(rate * a)
	return 1/rate + (l-a)*ea/numeric.OneMinusExpNeg(rate*a), nil
}

// BusyIdleMTTFPaperForm evaluates Derivation 1 exactly as printed in
// Appendix A:
//
//	E(X) = (1-e^(-rate*l))/(1-e^(-rate*a)) * ( l*e^(-rate*l)/(1-e^(-rate*l))^2
//	     - l*e^(-rate*a)*e^(-rate*l)/(1-e^(-rate*l))^2
//	     - a*e^(-rate*a)/(1-e^(-rate*l))
//	     + (1/rate)*(1-e^(-rate*a))/(1-e^(-rate*l))
//	     + l*(e^(-rate*a)-e^(-rate*l))/(1-e^(-rate*l))^2 )
//
// Kept for fidelity and as a cross-check of the simplified form; prefer
// BusyIdleMTTF, which is better conditioned for tiny rate*l.
func BusyIdleMTTFPaperForm(rate, l, a float64) (float64, error) {
	if rate <= 0 {
		return 0, errNonPositiveRate
	}
	if l <= 0 || a <= 0 || a > l {
		return 0, errBusyWindowPositive
	}
	el := numeric.ExpNeg(rate * l)
	ea := numeric.ExpNeg(rate * a)
	d := numeric.OneMinusExpNeg(rate * l)  // 1 - e^(-rate*l)
	da := numeric.OneMinusExpNeg(rate * a) // 1 - e^(-rate*a)
	d2 := d * d
	bracket := l*el/d2 - l*ea*el/d2 - a*ea/d + (1/rate)*da/d + l*(ea-el)/d2
	return d / da * bracket, nil
}

// BusyIdleAVFMTTF returns the AVF-step estimate for the same workload:
// MTTF_AVF = (l/a) * (1/rate), since the AVF of the busy/idle loop is
// a/l (Section 3.1.2).
func BusyIdleAVFMTTF(rate, l, a float64) (float64, error) {
	if rate <= 0 {
		return 0, errNonPositiveRate
	}
	if l <= 0 || a < 0 || a > l {
		return 0, errBusyWindow
	}
	if a == 0 {
		return math.Inf(1), nil
	}
	return l / a / rate, nil
}

// BusyIdleAVFError returns the relative error of the AVF step for the
// busy/idle loop, |E_AVF - E| / E — one point of Figure 3.
func BusyIdleAVFError(rate, l, a float64) (float64, error) {
	real, err := BusyIdleMTTF(rate, l, a)
	if err != nil {
		return 0, err
	}
	avf, err := BusyIdleAVFMTTF(rate, l, a)
	if err != nil {
		return 0, err
	}
	return math.Abs(avf-real) / real, nil
}

// SeriesHalfGaussianMTTF returns the exact MTTF of a series system of n
// components whose times to failure are i.i.d. with density
// 2/sqrt(pi)*e^(-x^2) (Section 3.2.2), computed by quadrature on the
// survival function.
func SeriesHalfGaussianMTTF(n int) (float64, error) {
	if n < 1 {
		return 0, errBadN
	}
	m := dist.MinOfIID{X: dist.HalfGaussian{}, N: n}
	v := m.Mean()
	if math.IsNaN(v) {
		return 0, errQuadratureFailed
	}
	return v, nil
}

// SeriesHalfGaussianSOFRMTTF returns the SOFR estimate for the same
// system. Following Section 3.2.2, the component MTTFs fed to SOFR are
// the true ones (1/sqrt(pi)), so the estimate is 1/(n*sqrt(pi)) and any
// error is attributable to the SOFR step alone.
func SeriesHalfGaussianSOFRMTTF(n int) (float64, error) {
	if n < 1 {
		return 0, errBadN
	}
	return 1 / (float64(n) * math.Sqrt(math.Pi)), nil
}

// SeriesHalfGaussianSOFRError returns the relative SOFR error for n
// components — one point of Figure 4.
func SeriesHalfGaussianSOFRError(n int) (float64, error) {
	real, err := SeriesHalfGaussianMTTF(n)
	if err != nil {
		return 0, err
	}
	sofr, err := SeriesHalfGaussianSOFRMTTF(n)
	if err != nil {
		return 0, err
	}
	return math.Abs(sofr-real) / real, nil
}
