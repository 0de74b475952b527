package soferr_test

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/soferr/soferr"
)

func busyIdleSpec(rate float64) soferr.Spec {
	return soferr.Spec{
		Name: "batch",
		Components: []soferr.ComponentSpec{{
			Name:        "cache",
			RatePerYear: rate,
			Trace:       soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 86400, BusySeconds: 3600},
		}},
	}
}

// TestSpecCompileMatchesHandBuiltSystem asserts the Spec path is a pure
// re-description: a compiled Spec answers every query bit-identically
// to the same system built directly from Components.
func TestSpecCompileMatchesHandBuiltSystem(t *testing.T) {
	ctx := context.Background()
	spec := soferr.Spec{
		Name: "pair",
		Components: []soferr.ComponentSpec{
			{
				Name:        "cache",
				RatePerYear: 1e5,
				Trace:       soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 4},
			},
			{
				Name:        "bank",
				RatePerYear: 2e4,
				Count:       3, // superposes to one component at 6e4
				Trace: soferr.TraceSpec{Kind: soferr.TraceKindPeriodic, PeriodSeconds: 10,
					Intervals: []soferr.Interval{{Start: 1, End: 2}, {Start: 5, End: 8}}},
			},
		},
	}
	fromSpec, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}

	tr1 := mustBusyIdle(t, 10, 4)
	tr2, err := soferr.PeriodicTrace(10, []soferr.Interval{{Start: 1, End: 2}, {Start: 5, End: 8}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := soferr.NewSystem([]soferr.Component{
		{Name: "cache", RatePerYear: 1e5, Trace: tr1},
		{Name: "bank", RatePerYear: 6e4, Trace: tr2},
	}, soferr.WithName("pair"))
	if err != nil {
		t.Fatal(err)
	}

	opts := []soferr.EstimateOption{
		soferr.WithTrials(5000), soferr.WithSeed(11), soferr.WithEngine(soferr.Fused),
	}
	a, err := fromSpec.CompareWith(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := direct.CompareWith(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("method %v: spec %+v != direct %+v", a[i].Method, a[i], b[i])
		}
	}
	ra, err := fromSpec.Reliability(ctx, 86400)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := direct.Reliability(ctx, 86400)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Errorf("Reliability: spec %v != direct %v", ra, rb)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := soferr.Spec{
		Name: "fleet",
		Components: []soferr.ComponentSpec{
			{Name: "cpu", RatePerYear: 3.1e4, Count: 500,
				Trace: soferr.TraceSpec{Kind: soferr.TraceKindCombined}},
			{Name: "cache", RatePerYear: 10,
				Trace: soferr.TraceSpec{Kind: soferr.TraceKindDay}},
		},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back soferr.Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name || len(back.Components) != 2 ||
		back.Components[0].Count != 500 || back.Components[0].Trace.Kind != soferr.TraceKindCombined {
		t.Errorf("round trip changed the spec: %+v", back)
	}
	if spec.Hash() != back.Hash() {
		t.Error("equal specs hash differently after a JSON round trip")
	}
}

func TestSpecHashStability(t *testing.T) {
	a := busyIdleSpec(100)
	b := busyIdleSpec(100)
	if a.Hash() != b.Hash() {
		t.Error("equal specs hash differently")
	}
	if !strings.HasPrefix(a.Hash(), "sha256:") {
		t.Errorf("hash %q lacks algorithm prefix", a.Hash())
	}
	c := busyIdleSpec(101)
	if a.Hash() == c.Hash() {
		t.Error("distinct specs collide")
	}
	d := busyIdleSpec(100)
	d.Components[0].Count = 2
	if a.Hash() == d.Hash() {
		t.Error("count change did not change the hash")
	}
	// Even invalid (non-marshalable) specs hash deterministically.
	bad := busyIdleSpec(math.NaN())
	if bad.Hash() != busyIdleSpec(math.NaN()).Hash() {
		t.Error("invalid specs hash nondeterministically")
	}
	// ... including with pointer-valued combined halves: the fallback
	// must hash by value, never by address.
	mkCombined := func() soferr.Spec {
		return soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: math.NaN(),
			Trace: soferr.TraceSpec{Kind: soferr.TraceKindCombined,
				A: &soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: "gzip"},
				B: &soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: "swim"},
			},
		}}}
	}
	if mkCombined().Hash() != mkCombined().Hash() {
		t.Error("equal non-marshalable specs with pointer halves hash differently")
	}
	other := mkCombined()
	other.Components[0].Trace.B.Benchmark = "gzip"
	if mkCombined().Hash() == other.Hash() {
		t.Error("distinct non-marshalable specs collide")
	}
}

func TestSpecValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec soferr.Spec
		want string
	}{
		{"empty", soferr.Spec{}, "no components"},
		{"negative rate", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: -1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindDay}}}}, "invalid rate_per_year"},
		{"nan rate", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: math.NaN(), Trace: soferr.TraceSpec{Kind: soferr.TraceKindDay}}}}, "invalid rate_per_year"},
		{"negative count", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Count: -2, Trace: soferr.TraceSpec{Kind: soferr.TraceKindDay}}}}, "negative count"},
		{"missing kind", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1}}}, "missing kind"},
		{"unknown kind", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: "sinusoid"}}}}, "unknown kind"},
		{"busyidle no period", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle}}}}, "period_seconds"},
		{"busy > period", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle,
				PeriodSeconds: 10, BusySeconds: 11}}}}, "busy_seconds"},
		{"periodic interval order", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindPeriodic, PeriodSeconds: 10,
				Intervals: []soferr.Interval{{Start: 5, End: 8}, {Start: 1, End: 2}}}}}}, "unsorted"},
		{"unknown benchmark", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBenchmark,
				Benchmark: "doom"}}}}, "doom"},
		{"unknown unit", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBenchmark,
				Benchmark: "gzip", Unit: "alu"}}}}, "unknown unit"},
		{"instructions over cap", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBenchmark,
				Benchmark: "gzip", Instructions: soferr.MaxSpecInstructions + 1}}}}, "exceeds the per-spec cap"},
		{"nested combined", soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1, Trace: soferr.TraceSpec{Kind: soferr.TraceKindCombined,
				A: &soferr.TraceSpec{Kind: soferr.TraceKindCombined}}}}}, "cannot nest"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if _, cerr := c.spec.Compile(); cerr == nil {
			t.Errorf("%s: compiled despite failing validation", c.name)
		}
	}
}

func TestSpecKindsCaseInsensitive(t *testing.T) {
	spec := soferr.Spec{Components: []soferr.ComponentSpec{{
		RatePerYear: 10,
		Trace:       soferr.TraceSpec{Kind: "BusyIdle", PeriodSeconds: 10, BusySeconds: 4},
	}}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("mixed-case kind rejected: %v", err)
	}
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.RatePerYear(); got != 10 {
		t.Errorf("RatePerYear = %v", got)
	}
}

// TestCompilerSharesBenchmarkSimulations asserts the compiler's cache
// contract: two specs naming the same (benchmark, instructions, seed)
// simulate once, and the resulting unit traces are shared.
func TestCompilerSharesBenchmarkSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark")
	}
	var logged strings.Builder
	comp := &soferr.Compiler{Instructions: 20000, SimSeed: 1, Log: &logged}
	mk := func(unit string) soferr.Spec {
		return soferr.Spec{Components: []soferr.ComponentSpec{{
			RatePerYear: 1e5,
			Trace:       soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: "gzip", Unit: unit},
		}}}
	}
	sysA, err := comp.Compile(mk(soferr.UnitInt))
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := comp.Compile(mk(soferr.UnitProcessor))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(logged.String(), "simulating gzip"); got != 1 {
		t.Errorf("gzip simulated %d times, want 1 (log: %q)", got, logged.String())
	}
	if sysA.Components()[0].Trace == sysB.Components()[0].Trace {
		t.Error("int and processor units returned the same trace")
	}

	// A distinct simulation seed is a distinct simulation.
	specSeeded := mk(soferr.UnitInt)
	specSeeded.Components[0].Trace.SimSeed = 2
	if _, err := comp.Compile(specSeeded); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(logged.String(), "simulating gzip"); got != 2 {
		t.Errorf("seeded respin simulated %d times total, want 2", got)
	}
}

// TestCompilerCombinedDefaultsMatchHarness asserts the combined-kind
// default pair builds the same schedule the experiment harness uses:
// the trace has a 24-hour period and a sane AVF.
func TestCompilerCombinedDefaultsMatchHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two benchmarks")
	}
	comp := &soferr.Compiler{Instructions: 20000, SimSeed: 1}
	tr, err := comp.BuildTrace(soferr.TraceSpec{Kind: soferr.TraceKindCombined})
	if err != nil {
		t.Fatal(err)
	}
	// The schedule repeats whole benchmark iterations per half day, so
	// the period is a day up to one benchmark period of rounding.
	if got := tr.Period(); math.Abs(got-86400) > 1 {
		t.Errorf("combined period = %v, want ~86400", got)
	}
	if avf := tr.AVF(); !(avf > 0 && avf < 1) {
		t.Errorf("combined AVF = %v", avf)
	}
}

func TestCompilerSourcesLazy(t *testing.T) {
	comp := &soferr.Compiler{}
	srcs := comp.Sources([]soferr.SourceSpec{
		{Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 5}},
		{Name: "weekly", Trace: soferr.TraceSpec{Kind: soferr.TraceKindWeek}},
	})
	if srcs[0].Name != "busyidle(5/10)" || srcs[1].Name != "weekly" {
		t.Errorf("derived names = %q, %q", srcs[0].Name, srcs[1].Name)
	}
	if srcs[0].Trace != nil {
		t.Error("sources should be lazy (Build, not Trace)")
	}
	tr, err := srcs[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.AVF() != 0.5 {
		t.Errorf("built AVF = %v, want 0.5", tr.AVF())
	}
}
