package trace

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/soferr/soferr/internal/numeric"
)

func TestShiftBasic(t *testing.T) {
	p := mustBusyIdle(t, 10, 4) // vulnerable [0,4)
	s, err := Shift(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Shifted: vulnerable [3,7).
	for _, tt := range []struct{ x, want float64 }{
		{0, 0}, {2.9, 0}, {3.1, 1}, {6.9, 1}, {7.1, 0}, {9.9, 0},
	} {
		if got := s.VulnAt(tt.x); got != tt.want {
			t.Errorf("VulnAt(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if numeric.RelErr(s.AVF(), p.AVF()) > 1e-12 {
		t.Errorf("shift changed AVF: %v vs %v", s.AVF(), p.AVF())
	}
}

func TestShiftWrapsVulnerableWindow(t *testing.T) {
	p := mustBusyIdle(t, 10, 4)
	s, err := Shift(p, 8) // vulnerable [8,10) + [0,2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct{ x, want float64 }{
		{1, 1}, {3, 0}, {7, 0}, {9, 1},
	} {
		if got := s.VulnAt(tt.x); got != tt.want {
			t.Errorf("VulnAt(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestShiftProperties(t *testing.T) {
	base := mustPiecewise(t, []Segment{{0, 3, 0.25}, {3, 5, 1}, {5, 11, 0}})
	f := func(rawOff float64) bool {
		off := math.Mod(rawOff, 50)
		s, err := Shift(base, off)
		if err != nil {
			return false
		}
		// Period and AVF are invariant; VulnAt shifts.
		if numeric.RelErr(s.Period(), base.Period()) > 1e-12 {
			return false
		}
		if math.Abs(s.AVF()-base.AVF()) > 1e-12 {
			return false
		}
		for _, x := range []float64{0.5, 2.9, 4.1, 7.7, 10.2} {
			if math.Abs(s.VulnAt(x+off)-base.VulnAt(x)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShiftZeroAndNil(t *testing.T) {
	p := mustBusyIdle(t, 10, 4)
	s, err := Shift(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.AVF() != p.AVF() || s.Period() != p.Period() {
		t.Error("zero shift changed trace")
	}
	if _, err := Shift(nil, 1); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestShiftNegativeOffset(t *testing.T) {
	p := mustBusyIdle(t, 10, 4)
	a, err := Shift(p, -3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shift(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 3.5, 6.5, 9.5} {
		if a.VulnAt(x) != b.VulnAt(x) {
			t.Errorf("Shift(-3) != Shift(7) at %v", x)
		}
	}
}
