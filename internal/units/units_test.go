package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestCycleDuration(t *testing.T) {
	// Table 1's 2.0 GHz clock.
	if SecondsPerCycle != 0.5e-9 {
		t.Errorf("one cycle = %v s, want 0.5ns", SecondsPerCycle)
	}
}

func TestFITConversions(t *testing.T) {
	// Exact arithmetic: 8.76e-9 errors/year = 1e-12 failures/hour =
	// 0.001 FIT.
	if got := PerYearToFIT(8.76e-9); !almostEqual(got, 0.001, 1e-12) {
		t.Errorf("8.76e-9 errors/year = %v FIT, want 0.001", got)
	}
	// The paper rounds 0.001 FIT to 1e-8 errors/year; the baseline
	// constant follows the paper's stated value, within the same order
	// of magnitude.
	if ratio := PerYearToFIT(BaselinePerBitPerYear) / 0.001; ratio < 1 || ratio > 1.2 {
		t.Errorf("baseline/0.001FIT ratio = %v, want within [1, 1.2]", ratio)
	}
}

func TestPerYearPerSecondRoundTrip(t *testing.T) {
	f := func(r float64) bool {
		r = math.Abs(r)
		return almostEqual(PerSecondToPerYear(PerYearToPerSecond(r)), r, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComponentRate(t *testing.T) {
	// The paper's Fig 3 cache: 1e9 bits at baseline rate => 10 errors/year.
	if got := ComponentRatePerYear(1e9, 1); !almostEqual(got, 10, 1e-12) {
		t.Errorf("1e9-bit cache rate = %v errors/year, want 10", got)
	}
	// Scaling factor multiplies linearly (Table 2).
	if got := ComponentRatePerYear(1e6, 5000); !almostEqual(got, 1e6*5000*1e-8, 1e-12) {
		t.Errorf("scaled rate = %v", got)
	}
}

func TestHorizonConstants(t *testing.T) {
	if SecondsPerDay != 86400 {
		t.Errorf("SecondsPerDay = %v", SecondsPerDay)
	}
	if SecondsPerWeek != 7*86400 {
		t.Errorf("SecondsPerWeek = %v", SecondsPerWeek)
	}
	if SecondsPerYear != 365*86400 {
		t.Errorf("SecondsPerYear = %v", SecondsPerYear)
	}
}
