package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/units"
)

func TestWrappedExpPDFNormalizes(t *testing.T) {
	for _, tt := range []struct{ rate, l float64 }{
		{0.5, 3}, {2, 1}, {1e-6, 10}, {10, 0.5},
	} {
		got, err := numeric.Integrate(func(x float64) float64 {
			return WrappedExpPDF(tt.rate, tt.l, x)
		}, 0, tt.l, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if numeric.RelErr(got, 1) > 1e-9 {
			t.Errorf("rate=%v l=%v: integral = %v, want 1", tt.rate, tt.l, got)
		}
	}
}

func TestWrappedExpTendsToUniform(t *testing.T) {
	// Theorem 1: as rate*L -> 0 the wrapped density tends to 1/L.
	const l = 5.0
	prevGap := math.Inf(1)
	for _, rate := range []float64{1, 0.1, 0.01, 0.001, 0.0001} {
		gap := WrappedExpUniformityGap(rate, l)
		if gap >= prevGap {
			t.Errorf("gap did not shrink: rate=%v gap=%v prev=%v", rate, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 3e-4 {
		t.Errorf("gap at rate*L=5e-4 is %v, want < 3e-4", prevGap)
	}
}

func TestBusyIdleMTTFMatchesPaperForm(t *testing.T) {
	// The simplified closed form and the paper's printed expression are
	// algebraically identical; verify numerically over a wide space.
	f := func(rawRate, rawL, rawA float64) bool {
		rate := math.Mod(math.Abs(rawRate), 100) + 1e-4
		l := math.Mod(math.Abs(rawL), 1000) + 1e-3
		a := math.Mod(math.Abs(rawA), l-l/1e6) + l/1e7
		simple, err1 := BusyIdleMTTF(rate, l, a)
		paper, err2 := BusyIdleMTTFPaperForm(rate, l, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return numeric.RelErr(simple, paper) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBusyIdleMTTFLimits(t *testing.T) {
	// Always busy (a = l): MTTF = 1/rate exactly.
	got, err := BusyIdleMTTF(2, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(got, 0.5) > 1e-12 {
		t.Errorf("always-busy MTTF = %v, want 0.5", got)
	}

	// Never busy: infinite MTTF.
	got, err = BusyIdleMTTF(2, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("never-busy MTTF = %v, want +Inf", got)
	}

	// rate*l -> 0: converges to the AVF answer (Section 3.1.1).
	const l, a = 10.0, 3.0
	for _, rate := range []float64{1e-6, 1e-8, 1e-10} {
		real, err := BusyIdleMTTF(rate, l, a)
		if err != nil {
			t.Fatal(err)
		}
		avf, err := BusyIdleAVFMTTF(rate, l, a)
		if err != nil {
			t.Fatal(err)
		}
		if numeric.RelErr(real, avf) > 10*rate*l {
			t.Errorf("rate=%v: real %v vs AVF %v differ by more than O(rate*l)", rate, real, avf)
		}
	}
}

func TestBusyIdleAVFErrorMonotoneInRate(t *testing.T) {
	// For fixed geometry the AVF error grows with the raw rate — the
	// qualitative claim of Fig 3 (errors grow with lambda).
	const l, a = 16 * units.SecondsPerDay, 8 * units.SecondsPerDay
	base := 10.0 / units.SecondsPerYear // 10 errors/year for the cache
	prev := -1.0
	for _, scale := range []float64{1, 3, 5} {
		e, err := BusyIdleAVFError(base*scale, l, a)
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev {
			t.Errorf("AVF error not increasing: scale %v gives %v after %v", scale, e, prev)
		}
		prev = e
	}
}

func TestBusyIdleAVFErrorFig3Anchors(t *testing.T) {
	// Figure 3's qualitative anchors: at the baseline rate (10/yr) the
	// error stays small even at L = 16 days; at 5x it is substantial.
	base := 10.0 / units.SecondsPerYear
	l := 16 * units.SecondsPerDay
	a := l / 2

	eBase, err := BusyIdleAVFError(base, l, a)
	if err != nil {
		t.Fatal(err)
	}
	if eBase > 0.10 {
		t.Errorf("baseline error = %v, want < 10%%", eBase)
	}

	e5, err := BusyIdleAVFError(5*base, l, a)
	if err != nil {
		t.Fatal(err)
	}
	if e5 < 0.15 {
		t.Errorf("5x error = %v, want > 15%%", e5)
	}

	// Short loops stay accurate even at 5x (L = 1 day).
	eShort, err := BusyIdleAVFError(5*base, units.SecondsPerDay, units.SecondsPerDay/2)
	if err != nil {
		t.Fatal(err)
	}
	if eShort > 0.05 {
		t.Errorf("1-day 5x error = %v, want < 5%%", eShort)
	}
}

func TestBusyIdleErrors(t *testing.T) {
	if _, err := BusyIdleMTTF(0, 1, 1); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := BusyIdleMTTF(1, -1, 0); err == nil {
		t.Error("negative l should fail")
	}
	if _, err := BusyIdleMTTF(1, 1, 2); err == nil {
		t.Error("a > l should fail")
	}
	if _, err := BusyIdleAVFMTTF(1, 0, 0); err == nil {
		t.Error("zero l should fail")
	}
	if _, err := SeriesHalfGaussianMTTF(0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestSeriesHalfGaussianFig4(t *testing.T) {
	// Figure 4: error ~15% at N=2 rising to ~32% at N=32, monotone.
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 32} {
		e, err := SeriesHalfGaussianSOFRError(n)
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev {
			t.Errorf("N=%d: error %v not increasing (prev %v)", n, e, prev)
		}
		prev = e
	}
	e2, _ := SeriesHalfGaussianSOFRError(2)
	if math.Abs(e2-0.15) > 0.03 {
		t.Errorf("N=2 error = %v, paper reports ~15%%", e2)
	}
	e32, _ := SeriesHalfGaussianSOFRError(32)
	if math.Abs(e32-0.32) > 0.04 {
		t.Errorf("N=32 error = %v, paper reports ~32%%", e32)
	}
}

func TestSeriesHalfGaussianSingleComponent(t *testing.T) {
	// With one component SOFR is exact: both are 1/sqrt(pi).
	real, err := SeriesHalfGaussianMTTF(1)
	if err != nil {
		t.Fatal(err)
	}
	sofr, err := SeriesHalfGaussianSOFRMTTF(1)
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(real, sofr) > 1e-6 {
		t.Errorf("N=1: real %v vs SOFR %v", real, sofr)
	}
	if numeric.RelErr(real, 1/math.Sqrt(math.Pi)) > 1e-6 {
		t.Errorf("N=1 MTTF = %v, want 1/sqrt(pi)", real)
	}
}
