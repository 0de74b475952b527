package montecarlo

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/soferr/soferr/internal/faultinject"
)

// panicTrace is a constant-vulnerability masking trace whose
// InvertExposure, the call every Fused trial makes on a trace outside
// the merge, panics after a scripted number of calls — the "corrupted
// trace implementation" failure mode the worker containment must
// survive.
type panicTrace struct {
	period, avf float64
	after       int64
	calls       atomic.Int64
}

func (p *panicTrace) Period() float64          { return p.period }
func (p *panicTrace) AVF() float64             { return p.avf }
func (p *panicTrace) VulnAt(t float64) float64 { return p.avf }
func (p *panicTrace) Exposure(x float64) float64 {
	return p.avf * min(max(x, 0), p.period)
}
func (p *panicTrace) TotalExposure() float64 { return p.avf * p.period }
func (p *panicTrace) InvertExposure(e float64) float64 {
	if p.calls.Add(1) > p.after {
		panic("panicTrace: scripted trace failure")
	}
	return min(max(e, 0)/p.avf, p.period)
}
func (p *panicTrace) SurvivalIntegral(rate float64) (float64, float64) {
	return p.period, p.avf * p.period
}

// TestTrialPanicContained: a panicking trace surfaces as a typed
// ErrTrialPanic error on the estimate path — carrying the panic value
// — instead of crashing the process.
func TestTrialPanicContained(t *testing.T) {
	tr := &panicTrace{period: 10, avf: 0.5, after: 100}
	_, err := SystemMTTF(context.Background(),
		[]Component{{Name: "bad", Rate: 0.1, Trace: tr}},
		Config{Trials: 20000, Seed: 1, Engine: Fused, Workers: 4})
	if !errors.Is(err, ErrTrialPanic) {
		t.Fatalf("err = %v, want ErrTrialPanic", err)
	}
	if !strings.Contains(err.Error(), "scripted trace failure") {
		t.Errorf("error %q lacks the panic value", err)
	}
}

// TestTrialPanicContainedAdaptive: the adaptive doubling rounds share
// the containment (they run on the same blockRunner).
func TestTrialPanicContainedAdaptive(t *testing.T) {
	tr := &panicTrace{period: 10, avf: 0.5, after: 100}
	_, err := SystemMTTF(context.Background(),
		[]Component{{Name: "bad", Rate: 0.1, Trace: tr}},
		Config{Trials: 20000, Seed: 1, Engine: Fused, Workers: 4, TargetRelStdErr: 0.01})
	if !errors.Is(err, ErrTrialPanic) {
		t.Fatalf("adaptive err = %v, want ErrTrialPanic", err)
	}
}

// TestInjectedTrialPanicContained drives the same containment through
// the chaos injection point: an armed montecarlo.trial panic rule
// fires inside a worker goroutine mid-run, and the run must return
// ErrTrialPanic. Disarmed, the identical seeded run must then be
// bit-identical to a reference run that never saw injection — the
// miss-is-bit-identical half of the fault-injection contract.
func TestInjectedTrialPanicContained(t *testing.T) {
	tr := busyIdle(t, 10, 5)
	comp := []Component{{Name: "c", Rate: 0.1, Trace: tr}}
	cfg := Config{Trials: 20000, Seed: 3, Engine: Fused, Workers: 4}

	want, err := SystemMTTF(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "montecarlo.trial", Hits: []int{2}, PanicMsg: "chaos"},
	}})
	_, err = SystemMTTF(context.Background(), comp, cfg)
	disarm()
	if !errors.Is(err, ErrTrialPanic) {
		t.Fatalf("injected panic: err = %v, want ErrTrialPanic", err)
	}

	got, err := SystemMTTF(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-disarm run differs from reference: %+v vs %+v", got, want)
	}
}

// TestInjectedRelayPanicContained pins the containment of the
// context-cancellation relay goroutine: an armed montecarlo.cancelrelay
// panic rule fires inside the relay (which only runs for cancelable
// contexts), and the run must survive it and report a typed
// ErrTrialPanic instead of crashing the process. Disarmed, the
// identical cancelable-context run must match a Background-context run
// bit-for-bit — the relay never perturbs results.
func TestInjectedRelayPanicContained(t *testing.T) {
	tr := busyIdle(t, 10, 5)
	comp := []Component{{Name: "c", Rate: 0.1, Trace: tr}}
	cfg := Config{Trials: 8192, Seed: 1, Engine: Fused, Workers: 4}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "montecarlo.cancelrelay", PanicMsg: "relay chaos"},
	}})
	_, err := SystemMTTF(ctx, comp, cfg)
	disarm()
	if !errors.Is(err, ErrTrialPanic) {
		t.Fatalf("injected relay panic: err = %v, want ErrTrialPanic", err)
	}
	if !strings.Contains(err.Error(), "cancellation relay") || !strings.Contains(err.Error(), "relay chaos") {
		t.Errorf("error %q lacks the relay panic detail", err)
	}

	want, err := SystemMTTF(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SystemMTTF(ctx, comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cancelable-context run differs from reference: %+v vs %+v", got, want)
	}
}

// TestInjectedRelayErrorContained: an injected error (no panic) at the
// relay point also fails the run cleanly, wrapping ErrInjected — on
// the adaptive path too, where the relay failure must not be lost to a
// round boundary that converged first.
func TestInjectedRelayErrorContained(t *testing.T) {
	tr := busyIdle(t, 10, 5)
	comp := []Component{{Name: "c", Rate: 0.1, Trace: tr}}
	for _, cfg := range []Config{
		{Trials: 8192, Seed: 1, Engine: Fused},
		{Trials: 8192, Seed: 1, Engine: Fused, TargetRelStdErr: 0.05},
	} {
		disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
			{Point: "montecarlo.cancelrelay"},
		}})
		ctx, cancel := context.WithCancel(context.Background())
		_, err := SystemMTTF(ctx, comp, cfg)
		cancel()
		disarm()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("adaptive=%v: err = %v, want ErrInjected", cfg.TargetRelStdErr > 0, err)
		}
	}
}

// TestInjectedTrialErrorContained: an injected error (no panic) at the
// trial point also fails the run cleanly, wrapping ErrInjected.
func TestInjectedTrialErrorContained(t *testing.T) {
	defer faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "montecarlo.trial", Hits: []int{1}},
	}})()
	tr := busyIdle(t, 10, 5)
	_, err := SystemMTTF(context.Background(),
		[]Component{{Name: "c", Rate: 0.1, Trace: tr}},
		Config{Trials: 8192, Seed: 1, Engine: Fused})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}
