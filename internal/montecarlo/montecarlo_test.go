package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/soferr/soferr/internal/analytic"
	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

func busyIdle(t *testing.T, period, busy float64) *trace.Piecewise {
	t.Helper()
	p, err := trace.BusyIdle(period, busy)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAlwaysVulnerableIsExponential(t *testing.T) {
	// With AVF = 1 the first raw error is the failure: MTTF = 1/rate.
	tr, err := trace.Always(10)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 0.25
	res, err := ComponentMTTF(context.Background(), Component{Name: "c", Rate: rate, Trace: tr}, Config{Trials: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(res.MTTF, 1/rate) > 0.01 {
		t.Errorf("MTTF = %v, want %v (relerr %v)", res.MTTF, 1/rate, numeric.RelErr(res.MTTF, 1/rate))
	}
}

func TestAgainstClosedForm(t *testing.T) {
	// The validation spine: Monte-Carlo must reproduce Derivation 1's
	// closed form across regimes of rate*L.
	cases := []struct {
		name               string
		rate, period, busy float64
	}{
		{"small rateL", 1e-3, 10, 5},
		{"moderate rateL", 0.05, 10, 5},
		{"large rateL", 0.5, 10, 2},
		{"asymmetric", 0.2, 100, 10},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tr := busyIdle(t, tt.period, tt.busy)
			want, err := analytic.BusyIdleMTTF(tt.rate, tt.period, tt.busy)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ComponentMTTF(context.Background(), Component{Rate: tt.rate, Trace: tr}, Config{Trials: 150000, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if numeric.RelErr(res.MTTF, want) > 0.015 {
				t.Errorf("MC = %v, closed form = %v (relerr %v, stderr %v)",
					res.MTTF, want, numeric.RelErr(res.MTTF, want), res.RelStdErr())
			}
		})
	}
}

func TestNaiveMatchesSuperposed(t *testing.T) {
	// The naive oracle simulates each component separately; Fused
	// samples the superposition of their thinned processes from one
	// merged hazard table. The two must agree.
	a := busyIdle(t, 10, 5)
	b := busyIdle(t, 10, 3)
	comps := []Component{
		{Name: "a", Rate: 0.1, Trace: a},
		{Name: "b", Rate: 0.05, Trace: b},
	}
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.MTTF(context.Background(), Config{Trials: 120000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nai := naiveMTTF(t, c, 120000, 4)
	if numeric.RelErr(sup.MTTF, nai.MTTF) > 0.02 {
		t.Errorf("superposed %v vs naive %v (relerr %v)", sup.MTTF, nai.MTTF, numeric.RelErr(sup.MTTF, nai.MTTF))
	}
}

func TestSuperpositionManyIdenticalComponents(t *testing.T) {
	// C identical components must equal one component at C times the
	// rate (superposition theorem) — and the Monte-Carlo result must
	// agree between the two formulations.
	tr := busyIdle(t, 10, 5)
	const rate = 0.02
	const c = 64
	comps := make([]Component, c)
	for i := range comps {
		comps[i] = Component{Rate: rate, Trace: tr}
	}
	multi, err := SystemMTTF(context.Background(), comps, Config{Trials: 100000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	single, err := ComponentMTTF(context.Background(), Component{Rate: rate * c, Trace: tr}, Config{Trials: 100000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(multi.MTTF, single.MTTF) > 0.02 {
		t.Errorf("C-component system %v vs scaled single %v", multi.MTTF, single.MTTF)
	}
}

func TestDeterminism(t *testing.T) {
	tr := busyIdle(t, 10, 4)
	cfg := Config{Trials: 20000, Seed: 42}
	a, err := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MTTF != b.MTTF || a.StdErr != b.StdErr {
		t.Errorf("same seed differs: %v vs %v", a, b)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	tr := busyIdle(t, 10, 4)
	one, err := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, Config{Trials: 20000, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, Config{Trials: 20000, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if one.MTTF != four.MTTF {
		t.Errorf("worker count changed result: %v vs %v", one.MTTF, four.MTTF)
	}
}

func TestSeedMatters(t *testing.T) {
	tr := busyIdle(t, 10, 4)
	a, _ := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, Config{Trials: 5000, Seed: 1})
	b, _ := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, Config{Trials: 5000, Seed: 2})
	if a.MTTF == b.MTTF {
		t.Error("different seeds produced identical estimates")
	}
}

func TestFractionalVulnerability(t *testing.T) {
	// A constant 0.5 vulnerability halves the effective rate:
	// MTTF = 1/(rate*0.5).
	p, err := trace.NewPiecewise([]trace.Segment{{Start: 0, End: 10, Vuln: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 0.2
	res, err := ComponentMTTF(context.Background(), Component{Rate: rate, Trace: p}, Config{Trials: 100000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(res.MTTF, 1/(rate*0.5)) > 0.015 {
		t.Errorf("MTTF = %v, want %v", res.MTTF, 1/(rate*0.5))
	}
}

func TestNeverFailingSystemReportsInfiniteMTTF(t *testing.T) {
	// A system in which no component can ever fail has a well-defined
	// MTTF of +Inf with zero standard error — not an error — from both
	// engines.
	never, err := trace.Never(10)
	if err != nil {
		t.Fatal(err)
	}
	always, err := trace.Always(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Component{
		{Name: "zero-avf", Rate: 1, Trace: never},
		{Name: "zero-rate", Rate: 0, Trace: always},
	}
	for _, comp := range cases {
		for _, e := range []Engine{Fused, Exact} {
			res, err := ComponentMTTF(context.Background(), comp, Config{Trials: 10, Engine: e})
			if err != nil {
				t.Errorf("%s/%v: err = %v, want nil", comp.Name, e, err)
				continue
			}
			if !math.IsInf(res.MTTF, 1) || res.StdErr != 0 {
				t.Errorf("%s/%v: result = %+v, want MTTF +Inf with StdErr 0", comp.Name, e, res)
			}
		}
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := SystemMTTF(context.Background(), nil, Config{}); err == nil {
		t.Error("empty system should fail")
	}
	tr := busyIdle(t, 10, 5)
	if _, err := SystemMTTF(context.Background(), []Component{{Rate: math.NaN(), Trace: tr}}, Config{}); err == nil {
		t.Error("NaN rate should fail")
	}
	if _, err := SystemMTTF(context.Background(), []Component{{Rate: 1, Trace: nil}}, Config{}); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestStdErrShrinksWithTrials(t *testing.T) {
	tr := busyIdle(t, 10, 5)
	small, err := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, Config{Trials: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	large, err := ComponentMTTF(context.Background(), Component{Rate: 0.1, Trace: tr}, Config{Trials: 128000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// 64x the trials should shrink stderr by ~8x; allow slack.
	if large.StdErr > small.StdErr/4 {
		t.Errorf("stderr did not shrink: %v (n=2k) vs %v (n=128k)", small.StdErr, large.StdErr)
	}
}

func TestLongLoopTraceWorks(t *testing.T) {
	// MC over a lazy LongLoop trace must agree with the closed form for
	// the equivalent busy/idle loop.
	inner := busyIdle(t, 1e-3, 0.5e-3)
	reps := trace.RepeatFor(inner, 2.0)
	ll, err := trace.NewLongLoop(trace.LoopPhase{Inner: inner, Reps: reps})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 0.05
	res, err := ComponentMTTF(context.Background(), Component{Rate: rate, Trace: ll}, Config{Trials: 60000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Fine-grained 50% duty cycle at tiny rate*L: MTTF ~= 1/(rate*0.5).
	want := 1 / (rate * 0.5)
	if numeric.RelErr(res.MTTF, want) > 0.02 {
		t.Errorf("MTTF = %v, want ~%v", res.MTTF, want)
	}
}

// BenchmarkFusedTrial times one single-threaded Fused trial (ns/op is
// ns per trial) on speedupSystem at N components. The merged table
// grows with N while a trial stays one draw and one O(log S) search, so
// ns/op should stay nearly flat in N. The table is built by a warm-up
// run outside the timer.
func BenchmarkFusedTrial(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			c := mustCompile(b, speedupSystem(b, n))
			if _, err := c.MTTF(ctx, Config{Trials: 64, Seed: 1, Workers: 1}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := c.MTTF(ctx, Config{Trials: b.N, Seed: 1, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func TestCompiledReuseMatchesSingleUse(t *testing.T) {
	// One Compiled system must answer repeated queries — across trial
	// counts, seeds, and engines — bit-identically to fresh single-use
	// runs: the precomputed state is shared, never mutated.
	tr := busyIdle(t, 10, 4)
	comps := []Component{
		{Name: "a", Rate: 0.05, Trace: tr},
		{Name: "b", Rate: 0.2, Trace: busyIdle(t, 10, 7)},
		{Name: "c", Rate: 0.1, Trace: tr},
	}
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Trials: 20000, Seed: 1},
		{Trials: 20000, Seed: 1, Engine: Exact},
		{Trials: 5000, Seed: 9},
		{Trials: 20000, Seed: 1}, // repeat of the first
	}
	for _, cfg := range cfgs {
		got, err := c.MTTF(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SystemMTTF(context.Background(), comps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("cfg %+v: compiled %+v != single-use %+v", cfg, got, want)
		}
	}
}

func TestContextCancellationMidRun(t *testing.T) {
	tr := busyIdle(t, 10, 4)
	comps := []Component{{Rate: 0.1, Trace: tr}}

	// Pre-cancelled: no work at all.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SystemMTTF(pre, comps, Config{Trials: 1000, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	// Cancelled mid-run: a huge trial budget that would take far longer
	// than the cancellation delay must stop early with ctx.Err(), and
	// return it distinctly (not as a trial error).
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err := SystemMTTF(ctx, comps, Config{Trials: 500_000_000, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancellation returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, should abort promptly", elapsed)
	}
}
