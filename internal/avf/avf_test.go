package avf

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/soferr/soferr/internal/trace"
)

func TestMTTFEquationOne(t *testing.T) {
	// Equation 1: MTTF = 1/(lambda * AVF).
	got, err := MTTF(0.5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1/(0.5*0.4) {
		t.Errorf("MTTF = %v, want %v", got, 1/(0.5*0.4))
	}
}

func TestMTTFZeroDeratedRate(t *testing.T) {
	for _, tt := range []struct{ rate, avf float64 }{{0, 0.5}, {1, 0}, {0, 0}} {
		got, err := MTTF(tt.rate, tt.avf)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(got, 1) {
			t.Errorf("MTTF(%v,%v) = %v, want +Inf", tt.rate, tt.avf, got)
		}
	}
}

func TestMTTFValidation(t *testing.T) {
	if _, err := MTTF(-1, 0.5); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := MTTF(1, 1.5); err == nil {
		t.Error("AVF > 1 should fail")
	}
	if _, err := MTTF(1, -0.1); err == nil {
		t.Error("negative AVF should fail")
	}
	if _, err := MTTF(math.NaN(), 0.5); err == nil {
		t.Error("NaN rate should fail")
	}
}

func TestComponentMTTF(t *testing.T) {
	p, err := trace.BusyIdle(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComponentMTTF(2, p)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("ComponentMTTF = %v, want 1", got)
	}
	if _, err := ComponentMTTF(1, nil); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestMTTFScalesInversely(t *testing.T) {
	f := func(rawRate, rawAVF float64) bool {
		rate := math.Mod(math.Abs(rawRate), 1e6) + 1e-9
		avfVal := math.Mod(math.Abs(rawAVF), 0.99) + 0.005
		m1, err1 := MTTF(rate, avfVal)
		m2, err2 := MTTF(2*rate, avfVal)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(m1/m2-2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
