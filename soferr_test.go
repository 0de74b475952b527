package soferr_test

import (
	"math"
	"strings"
	"testing"

	"github.com/soferr/soferr"
)

const yearSeconds = 365 * 86400.0

func TestBusyIdleTraceAVF(t *testing.T) {
	tr, err := soferr.BusyIdleTrace(86400, 43200)
	if err != nil {
		t.Fatal(err)
	}
	if got := soferr.AVF(tr); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("AVF = %v, want 0.5", got)
	}
}

func TestAVFMTTFMatchesEquationOne(t *testing.T) {
	tr, err := soferr.BusyIdleTrace(100, 25)
	if err != nil {
		t.Fatal(err)
	}
	got, err := soferr.AVFMTTF(4 /* errors/year */, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := yearSeconds // 1/(4 x 0.25) years
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("AVF MTTF = %v s, want %v s", got, want)
	}
}

func TestEstimatorsAgreeWhereAVFIsValid(t *testing.T) {
	// Small rate x period: AVF, Monte Carlo, and SoftArch all agree.
	tr, err := soferr.BusyIdleTrace(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	comp := soferr.Component{Name: "c", RatePerYear: 1000, Trace: tr}
	avfEst, err := soferr.AVFMTTF(comp.RatePerYear, tr)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := soferr.SoftArchMTTF([]soferr.Component{comp})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := soferr.MonteCarloMTTF([]soferr.Component{comp}, soferr.Query{Trials: 60000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avfEst-exact)/exact > 1e-3 {
		t.Errorf("AVF %v vs exact %v", avfEst, exact)
	}
	if math.Abs(mc.MTTF-exact)/exact > 0.02 {
		t.Errorf("MC %v vs exact %v", mc.MTTF, exact)
	}
}

func TestAVFBreaksAtHighRate(t *testing.T) {
	// The paper's core claim: with large rate x L, the AVF estimate
	// diverges from first principles.
	day, err := soferr.DayWorkload()
	if err != nil {
		t.Fatal(err)
	}
	const rate = 1e4 // errors/year: deep in the broken regime
	avfEst, err := soferr.AVFMTTF(rate, day)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := soferr.SoftArchMTTF([]soferr.Component{{Name: "p", RatePerYear: rate, Trace: day}})
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(avfEst-exact) / exact
	if relErr < 0.5 {
		t.Errorf("AVF error = %v, expected large divergence at high rate", relErr)
	}
	// And the closed form agrees with SoftArch.
	closed, err := soferr.BusyIdleMTTF(rate, 86400, 43200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(closed-exact)/exact > 1e-9 {
		t.Errorf("closed form %v vs SoftArch %v", closed, exact)
	}
}

func TestSOFRMTTF(t *testing.T) {
	got, err := soferr.SOFRMTTF([]float64{100, 100, 50})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / (1.0/100 + 1.0/100 + 1.0/50)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SOFR = %v, want %v", got, want)
	}
}

func TestFigureAnchors(t *testing.T) {
	// Fig 3 anchor: baseline cache error small at L=1 day.
	e, err := soferr.BusyIdleAVFError(10, 86400, 43200)
	if err != nil {
		t.Fatal(err)
	}
	if e > 0.01 {
		t.Errorf("Fig3 baseline error = %v, want tiny", e)
	}
	// Fig 4 anchors.
	e2, err := soferr.SeriesHalfGaussianSOFRError(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2-0.15) > 0.03 {
		t.Errorf("Fig4 N=2 error = %v, want ~0.15", e2)
	}
}

func TestWorkloads(t *testing.T) {
	day, err := soferr.DayWorkload()
	if err != nil {
		t.Fatal(err)
	}
	week, err := soferr.WeekWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if day.Period() != 86400 || week.Period() != 7*86400 {
		t.Error("workload periods wrong")
	}
	if math.Abs(week.AVF()-5.0/7.0) > 1e-12 {
		t.Errorf("week AVF = %v", week.AVF())
	}
}

func TestSimulateBenchmarkAndCombined(t *testing.T) {
	if len(soferr.Benchmarks()) != 21 {
		t.Fatalf("Benchmarks() = %d names, want 21", len(soferr.Benchmarks()))
	}
	gzip, err := soferr.SimulateBenchmark("gzip", 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gzip.IPC() <= 0 {
		t.Errorf("IPC = %v", gzip.IPC())
	}
	if gzip.Int.AVF() <= 0 {
		t.Error("gzip integer AVF should be positive")
	}
	swim, err := soferr.SimulateBenchmark("swim", 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := soferr.CombinedWorkload(gzip.Int, swim.Int)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(combined.Period()-86400) > 1 {
		t.Errorf("combined period = %v", combined.Period())
	}
	wantAVF := (gzip.Int.AVF() + swim.Int.AVF()) / 2
	if math.Abs(combined.AVF()-wantAVF) > 0.02 {
		t.Errorf("combined AVF = %v, want ~%v", combined.AVF(), wantAVF)
	}
}

// TestSimulateBenchmarkAcceptsSpecBenchmarks pins SimulateBenchmark to
// the names a Spec's benchmark trace accepts, the phased programs
// included.
func TestSimulateBenchmarkAcceptsSpecBenchmarks(t *testing.T) {
	for _, name := range append(soferr.Benchmarks(), "phased-int", "phased-fp", "nope") {
		specErr := soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: name}.Validate()
		if strings.HasPrefix(name, "phased-") && specErr != nil {
			t.Fatalf("Spec validation rejects %q: %v", name, specErr)
		}
		_, simErr := soferr.SimulateBenchmark(name, 3000, 1)
		if (specErr == nil) != (simErr == nil) {
			t.Errorf("%q: Spec validation error %v, SimulateBenchmark error %v", name, specErr, simErr)
		}
	}
}

func TestUnionTrace(t *testing.T) {
	gzip, err := soferr.SimulateBenchmark("gzip", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	union, err := soferr.UnionTrace([]soferr.Component{
		{Name: "int", RatePerYear: 2.3e-6, Trace: gzip.Int},
		{Name: "fp", RatePerYear: 4.5e-6, Trace: gzip.FP},
		{Name: "decode", RatePerYear: 3.3e-6, Trace: gzip.Decode},
	})
	if err != nil {
		t.Fatal(err)
	}
	if union.RatePerYear != 2.3e-6+4.5e-6+3.3e-6 {
		t.Errorf("union rate = %v", union.RatePerYear)
	}
	if a := union.Trace.AVF(); a < 0 || a > 1 {
		t.Errorf("union AVF = %v", a)
	}

	// The union must preserve the system MTTF (superposition):
	// SoftArch on the three components == SoftArch on the union.
	multi, err := soferr.SoftArchMTTF([]soferr.Component{
		{Name: "int", RatePerYear: 2.3e-6, Trace: gzip.Int},
		{Name: "fp", RatePerYear: 4.5e-6, Trace: gzip.FP},
		{Name: "decode", RatePerYear: 3.3e-6, Trace: gzip.Decode},
	})
	if err != nil {
		t.Fatal(err)
	}
	single, err := soferr.SoftArchMTTF([]soferr.Component{union})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(multi-single)/single > 1e-9 {
		t.Errorf("union changed MTTF: %v vs %v", multi, single)
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := soferr.AVFMTTF(1, nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := soferr.UnionTrace(nil); err == nil {
		t.Error("empty union accepted")
	}
	if _, err := soferr.SimulateBenchmark("nope", 100, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := soferr.SoftArchMTTF([]soferr.Component{{Name: "x"}}); err == nil {
		t.Error("nil trace component accepted")
	}
	day, err := soferr.DayWorkload()
	if err != nil {
		t.Fatal(err)
	}
	gzip, err := soferr.SimulateBenchmark("gzip", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soferr.CombinedWorkload(day, gzip.Int); err == nil {
		t.Error("over-long combined phase accepted")
	}
}

func TestMonteCarloEngines(t *testing.T) {
	// The public Engine option must select working engines whose
	// estimates agree within Monte-Carlo noise: the Fused sample with
	// its standard error, the Exact closed form with none.
	tr, err := soferr.BusyIdleTrace(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	comps := []soferr.Component{{Name: "c", RatePerYear: 3e6, Trace: tr}}
	results := make(map[soferr.Engine]soferr.MonteCarloResult)
	for _, e := range []soferr.Engine{soferr.Fused, soferr.Exact} {
		res, err := soferr.MonteCarloMTTF(comps, soferr.Query{
			Trials: 60000, Seed: 5 + uint64(e), Engine: e,
		})
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		wantSpread := e == soferr.Fused
		if res.MTTF <= 0 || (res.StdErr > 0) != wantSpread {
			t.Fatalf("engine %v: degenerate result %+v", e, res)
		}
		results[e] = res
	}
	fused, exact := results[soferr.Fused], results[soferr.Exact]
	if diff, bound := math.Abs(fused.MTTF-exact.MTTF), 3*math.Hypot(fused.StdErr, exact.StdErr); diff > bound {
		t.Errorf("engines disagree: %v vs %v (diff %v > %v)", fused.MTTF, exact.MTTF, diff, bound)
	}
}
