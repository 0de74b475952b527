package numeric

import (
	"math"
	"testing"
)

func TestOneMinusExpNegSmall(t *testing.T) {
	// For tiny x, 1-e^-x ~= x; naive evaluation loses all precision.
	for _, x := range []float64{1e-18, 1e-15, 1e-12, 1e-9} {
		got := OneMinusExpNeg(x)
		if RelErr(got, x) > 1e-9 {
			t.Errorf("OneMinusExpNeg(%g) = %g, want ~%g", x, got, x)
		}
	}
}

func TestOneMinusExpNegLarge(t *testing.T) {
	if got := OneMinusExpNeg(800); got != 1 {
		t.Errorf("OneMinusExpNeg(800) = %v, want 1", got)
	}
}

func TestExpNegClamp(t *testing.T) {
	if got := ExpNeg(1e6); got != 0 {
		t.Errorf("ExpNeg(1e6) = %v, want 0", got)
	}
	if got := ExpNeg(1); RelErr(got, math.Exp(-1)) > 1e-15 {
		t.Errorf("ExpNeg(1) = %v", got)
	}
}

func TestIntegratePolynomial(t *testing.T) {
	// int_0^1 3x^2 dx = 1.
	got, err := Integrate(func(x float64) float64 { return 3 * x * x }, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if RelErr(got, 1) > 1e-10 {
		t.Errorf("integral = %v, want 1", got)
	}
}

func TestIntegrateSin(t *testing.T) {
	// int_0^pi sin(x) dx = 2.
	got, err := Integrate(math.Sin, 0, math.Pi, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if RelErr(got, 2) > 1e-10 {
		t.Errorf("integral = %v, want 2", got)
	}
}

func TestIntegrateReversedEmpty(t *testing.T) {
	got, err := Integrate(math.Sin, 1, 1, 1e-10)
	if err != nil || got != 0 {
		t.Errorf("empty interval integral = %v, err %v", got, err)
	}
}

func TestIntegrateToInfGaussian(t *testing.T) {
	// int_0^inf e^(-x^2) dx = sqrt(pi)/2.
	got, err := IntegrateToInf(func(x float64) float64 { return math.Exp(-x * x) }, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(math.Pi) / 2
	if RelErr(got, want) > 1e-8 {
		t.Errorf("integral = %v, want %v", got, want)
	}
}

func TestIntegrateToInfExpMean(t *testing.T) {
	// int_0^inf x * l*e^(-l*x) dx = 1/l.
	const l = 3.0
	got, err := IntegrateToInf(func(x float64) float64 { return x * l * math.Exp(-l*x) }, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if RelErr(got, 1/l) > 1e-8 {
		t.Errorf("mean = %v, want %v", got, 1/l)
	}
}

func TestKahanSum(t *testing.T) {
	// 1 + 1e-16 added 1e5 times: naive summation drops the small terms.
	var k KahanSum
	k.Add(1)
	for i := 0; i < 100000; i++ {
		k.Add(1e-16)
	}
	want := 1 + 1e-11
	if RelErr(k.Sum(), want) > 1e-12 {
		t.Errorf("Kahan sum = %.17g, want %.17g", k.Sum(), want)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(1.1, 1.0); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("RelErr(1.1,1) = %v", got)
	}
	if RelErr(0.5, 0) != 0.5 {
		t.Errorf("RelErr(0.5,0) = %v", RelErr(0.5, 0))
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if RelErr(root, math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return 1 }, 0, 1, 1e-9); err == nil {
		t.Error("expected bracket error")
	}
}
