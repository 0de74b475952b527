package montecarlo

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/trace"
)

// TestSobolSamplerMatchesExact: the QMC estimate is consistent — it
// converges to the same MTTF the closed-form engine computes, with a
// replicate standard error that honestly covers the gap.
func TestSobolSamplerMatchesExact(t *testing.T) {
	comps := fusedTestSystem(t)
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, sc := range map[string]*Compiled{"per-component": perComponent(t, comps), "merged": c} {
		res, err := sc.MTTF(ctx, Config{Trials: 2 * trialBlock, Seed: 17, Sampler: Sobol})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if numeric.RelErr(res.MTTF, want) > 0.01 {
			t.Errorf("%s: QMC MTTF = %v, exact = %v (relerr %v)", name, res.MTTF, want, numeric.RelErr(res.MTTF, want))
		}
		if !(res.StdErr > 0) || math.IsInf(res.StdErr, 0) {
			t.Errorf("%s: replicate stderr = %v, want finite positive", name, res.StdErr)
		}
		if math.Abs(res.MTTF-want) > 6*res.StdErr {
			t.Errorf("%s: |est-exact| = %v exceeds 6 stderr (%v)", name, math.Abs(res.MTTF-want), res.StdErr)
		}
	}
}

// TestSobolSamplerDeterminism: QMC runs are bit-identical across worker
// counts, and adaptive runs that stop at the cap equal the fixed run of
// the same length — the same contract the PCG sampler has always had.
func TestSobolSamplerDeterminism(t *testing.T) {
	comps := fusedTestSystem(t)
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const trials = 2 * trialBlock
	ref, err := c.MTTF(ctx, Config{Trials: trials, Seed: 23, Engine: Fused, Sampler: Sobol, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 8} {
		got, err := c.MTTF(ctx, Config{Trials: trials, Seed: 23, Engine: Fused, Sampler: Sobol, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("workers=%d: %+v != %+v", workers, got, ref)
		}
	}
	// Adaptive at an unreachable target stops at the cap and must equal
	// the fixed run of the same length.
	adaptive, err := c.MTTF(ctx, Config{Trials: trials, Seed: 23, Engine: Fused, Sampler: Sobol, TargetRelStdErr: 1e-12, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive != ref {
		t.Errorf("adaptive-at-cap %+v != fixed %+v", adaptive, ref)
	}
	// Different seeds scramble differently.
	other, err := c.MTTF(ctx, Config{Trials: trials, Seed: 24, Engine: Fused, Sampler: Sobol})
	if err != nil {
		t.Fatal(err)
	}
	if other.MTTF == ref.MTTF {
		t.Error("different seeds produced identical QMC estimates")
	}
}

// TestSobolSamplerRejectsUnsupported: thinning-fallback components have
// no fixed per-trial draw count, so the Sobol sampler must refuse any
// system holding one — alone or beside a merged table — with the typed
// error.
func TestSobolSamplerRejectsUnsupported(t *testing.T) {
	c, err := Compile(fusedTestSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opaque := Component{Name: "opaque", Rate: 0.05, Trace: opaqueTrace{p: busyIdle(t, 1e-3, 0.5e-3)}}
	for name, comps := range map[string][]Component{
		"opaque": {opaque}, "merged+opaque": append(fusedTestSystem(t), opaque),
	} {
		sc, err := Compile(comps)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sc.MTTF(ctx, Config{Trials: 64, Sampler: Sobol})
		if !errors.Is(err, ErrSamplerUnsupported) {
			t.Errorf("%s: err = %v, want ErrSamplerUnsupported", name, err)
		}
	}

	// The Exact engine ignores samplers entirely: no trials, no draws.
	if _, err := c.MTTF(ctx, Config{Engine: Exact, Sampler: Sobol}); err != nil {
		t.Errorf("exact engine with sampler set: %v", err)
	}
}

// TestSamplerByName mirrors EngineByName's contract.
func TestSamplerByName(t *testing.T) {
	cases := []struct {
		in   string
		want Sampler
		ok   bool
	}{
		{"", DefaultSampler, true}, {"pcg", PCG, true}, {"PCG", PCG, true},
		{"sobol", Sobol, true}, {"Sobol", Sobol, true},
		{"halton", 0, false}, {"bogus", 0, false},
	}
	for _, tt := range cases {
		got, err := SamplerByName(tt.in)
		if tt.ok && (err != nil || got != tt.want) {
			t.Errorf("SamplerByName(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
		if !tt.ok && err == nil {
			t.Errorf("SamplerByName(%q): want error", tt.in)
		}
	}
	for _, s := range []Sampler{PCG, Sobol} {
		back, err := SamplerByName(s.String())
		if err != nil || back != s {
			t.Errorf("round-trip %v failed: %v, %v", s, back, err)
		}
	}
}

// TestSobolAdaptiveConvergesFasterThanPCG is the headline convergence
// property at test scale: on a reference system, the adaptive loop at a
// moderate precision target stops at no more trials under QMC than
// under PCG. The non-short benchmark suite asserts the stronger <= 1/2
// factor on the SPEC-trace profile (see TestQMCTrialsToTargetHalved).
func TestSobolAdaptiveConvergesFasterThanPCG(t *testing.T) {
	comps := fusedTestSystem(t)
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const target = 0.004
	const cap = 64 * trialBlock
	pcg, err := c.MTTF(ctx, Config{Trials: cap, Seed: 1, Engine: Fused, TargetRelStdErr: target, Sampler: PCG})
	if err != nil {
		t.Fatal(err)
	}
	qmc, err := c.MTTF(ctx, Config{Trials: cap, Seed: 1, Engine: Fused, TargetRelStdErr: target, Sampler: Sobol})
	if err != nil {
		t.Fatal(err)
	}
	if pcg.Trials >= cap {
		t.Fatalf("PCG did not converge below the cap (%d trials); tighten the test setup", pcg.Trials)
	}
	if qmc.Trials > pcg.Trials {
		t.Errorf("QMC needed %d trials, PCG %d: expected QMC <= PCG at target %v", qmc.Trials, pcg.Trials, target)
	}
	if qmc.RelStdErr() > target {
		t.Errorf("QMC stopped above target: rse=%v", qmc.RelStdErr())
	}
}

// TestSobolManyComponentsPadsDims: a system needing more uniforms per
// trial than the Sobol dimension cap still runs (trailing draws pad
// from the per-trial PCG stream) and stays consistent with the exact
// answer and deterministic across worker counts.
func TestSobolManyComponentsPadsDims(t *testing.T) {
	var comps []Component
	for i := 0; i < 40; i++ { // 80 dims needed > 64 cap
		comps = append(comps, Component{
			Rate:  1e-3 * float64(1+i%5),
			Trace: busyIdle(t, 8, float64(1+i%7)),
		})
	}
	c := perComponent(t, comps)
	ctx := context.Background()
	res1, err := c.MTTF(ctx, Config{Trials: trialBlock, Seed: 3, Sampler: Sobol, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := c.MTTF(ctx, Config{Trials: trialBlock, Seed: 3, Sampler: Sobol, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res4 {
		t.Errorf("worker count changed padded-dims result: %+v vs %+v", res1, res4)
	}
	want, err := c.ExactMTTF()
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(res1.MTTF, want) > 0.05 {
		t.Errorf("padded QMC MTTF = %v, exact = %v", res1.MTTF, want)
	}
}

// TestSobolShortRunStdErrFinite: a Sobol run shorter than the replicate
// count leaves replicates empty, and an empty replicate has no mean.
// The standard error is the spread of the non-empty replicates' means,
// so it is finite at every trial count, and zero for a single trial as
// under PCG.
func TestSobolShortRunStdErrFinite(t *testing.T) {
	const perYear = 1 / (365.25 * 86400)
	c := mustCompile(t, []Component{{Name: "c", Rate: 1e4 * perYear, Trace: busyIdle(t, 3600, 1000)}})
	for _, trials := range []int{1, 5, qmcReplicates - 1, qmcReplicates, qmcReplicates + 1} {
		res, err := c.MTTF(context.Background(), Config{Trials: trials, Seed: 1, Sampler: Sobol})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.MTTF) || math.IsNaN(res.StdErr) || math.IsInf(res.StdErr, 0) || res.StdErr < 0 {
			t.Errorf("%d trials: MTTF %v, stderr %v; want a finite non-negative stderr", trials, res.MTTF, res.StdErr)
		}
		if trials == 1 && res.StdErr != 0 {
			t.Errorf("1 trial: stderr %v, want 0", res.StdErr)
		}
	}
}

// TestDefaultSamplerResolution pins what DefaultSampler runs: Sobol
// only for an adaptive run whose cap is at least trialBlock on a system
// whose every draw has a Sobol dimension, PCG everywhere else. Each row
// must also be bit-identical to the run that names its sampler, so the
// reported sampler is the one that ran.
func TestDefaultSamplerResolution(t *testing.T) {
	long, err := trace.NewLongLoop(
		trace.LoopPhase{Inner: busyIdle(t, 2, 0.5), Reps: 50},
		trace.LoopPhase{Inner: busyIdle(t, 3, 2), Reps: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	var wide []Component // 80 draws per trial: more than xrand.MaxSobolDims
	for i := 0; i < 40; i++ {
		wide = append(wide, Component{Rate: 1e-3 * float64(1+i%5), Trace: busyIdle(t, 8, float64(1+i%7))})
	}
	systems := map[string]*Compiled{
		"merged": mustCompile(t, fusedTestSystem(t)),
		"incommensurate": mustCompile(t, []Component{
			{Name: "unit", Rate: 0.1, Trace: busyIdle(t, 1, 0.4)},
			{Name: "pi", Rate: 0.07, Trace: busyIdle(t, math.Pi, 1)},
		}),
		"combined": mustCompile(t, []Component{
			{Name: "lazy", Rate: 0.02, Trace: long},
			{Name: "loop", Rate: 0.05, Trace: busyIdle(t, 10, 4)},
		}),
		"thinning": mustCompile(t, append(fusedTestSystem(t),
			Component{Name: "opaque", Rate: 0.05, Trace: opaqueTrace{p: busyIdle(t, 1e-3, 0.5e-3)}})),
		"wide": perComponent(t, wide),
	}
	fixed := Config{Trials: 2 * trialBlock, Seed: 5, Workers: 2}
	adaptive := Config{Trials: 16 * trialBlock, Seed: 5, Workers: 2, TargetRelStdErr: 0.01}
	withCap := func(cfg Config, trials int) Config { cfg.Trials = trials; return cfg }
	for _, tt := range []struct {
		system string
		cfg    Config
		want   Sampler
	}{
		{"merged", fixed, PCG},
		{"merged", adaptive, Sobol},
		{"incommensurate", fixed, PCG},
		{"incommensurate", adaptive, Sobol},
		{"combined", fixed, PCG},
		{"combined", adaptive, Sobol},
		{"thinning", fixed, PCG},
		{"thinning", adaptive, PCG},
		{"wide", withCap(adaptive, 2*trialBlock), PCG},
		{"merged", withCap(adaptive, trialBlock-1), PCG},
		{"merged", withCap(adaptive, trialBlock), Sobol},
	} {
		c := systems[tt.system]
		got, err := c.MTTF(context.Background(), tt.cfg)
		if err != nil {
			t.Errorf("%s %+v: %v", tt.system, tt.cfg, err)
			continue
		}
		named := tt.cfg
		named.Sampler = tt.want
		want, err := c.MTTF(context.Background(), named)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sampler != tt.want || got != want {
			t.Errorf("%s %+v: default ran %+v, want the %v run %+v", tt.system, tt.cfg, got, tt.want, want)
		}
	}

	// Runs without trials name PCG: the Exact engine, and a system that
	// can never fail.
	never := mustCompile(t, []Component{{Name: "idle", Rate: 0, Trace: busyIdle(t, 10, 4)}})
	for name, run := range map[string]func() (Result, error){
		"exact":         func() (Result, error) { return systems["merged"].MTTF(context.Background(), Config{Engine: Exact}) },
		"never-failing": func() (Result, error) { return never.MTTF(context.Background(), adaptive) },
	} {
		res, err := run()
		if err != nil || res.Sampler != PCG {
			t.Errorf("%s: sampler %v, err %v; want pcg", name, res.Sampler, err)
		}
	}
}
