package montecarlo

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
)

// goldenRun is one seeded Fused query whose output bits are pinned.
type goldenRun struct {
	name    string
	cfg     Config
	samples bool // pin the first 8 trial failure times instead of the summary
}

// goldenSystems are the two Fused trial paths: a merged table alone,
// and an incommensurate pair (no merge, per-component inversion).
func goldenSystems(t *testing.T) map[string][]Component {
	return map[string][]Component{
		"merged": fusedTestSystem(t),
		"incommensurate": {
			{Name: "unit", Rate: 0.1, Trace: busyIdle(t, 1, 0.4)},
			{Name: "pi", Rate: 0.07, Trace: busyIdle(t, math.Pi, 1)},
		},
	}
}

// goldenRuns covers fixed and adaptive summaries and raw samples under
// both samplers, each named outright (DefaultSampler resolves to one of
// them; TestDefaultSamplerResolution pins which).
var goldenRuns = []goldenRun{
	{name: "pcg/fixed", cfg: Config{Trials: 3*trialBlock + 123, Seed: 11, Workers: 3, Sampler: PCG}},
	{name: "pcg/adaptive", cfg: Config{Trials: 16 * trialBlock, Seed: 11, Workers: 3, Sampler: PCG, TargetRelStdErr: 0.01}},
	{name: "pcg/samples", cfg: Config{Trials: trialBlock + 5, Seed: 11, Workers: 3, Sampler: PCG}, samples: true},
	{name: "sobol/fixed", cfg: Config{Trials: 3 * trialBlock, Seed: 23, Workers: 3, Sampler: Sobol}},
	{name: "sobol/adaptive", cfg: Config{Trials: 16 * trialBlock, Seed: 23, Workers: 3, Sampler: Sobol, TargetRelStdErr: 0.0003}},
	{name: "sobol/samples", cfg: Config{Trials: trialBlock + 5, Seed: 23, Workers: 3, Sampler: Sobol}, samples: true},
}

// goldenBits runs one pinned query and returns its output as bits:
// MTTF, StdErr and the trial count for a summary, the first 8 samples
// in trial order otherwise.
func goldenBits(t *testing.T, c *Compiled, run goldenRun) []uint64 {
	t.Helper()
	ctx := context.Background()
	if run.samples {
		samples := trialTimes(t, c, run.cfg)
		bits := make([]uint64, 8)
		for i := range bits {
			bits[i] = math.Float64bits(samples[i])
		}
		return bits
	}
	res, err := c.MTTF(ctx, run.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []uint64{math.Float64bits(res.MTTF), math.Float64bits(res.StdErr), uint64(res.Trials)}
}

// trialTimes returns the failure times of trials [0, cfg.Trials) in
// trial order, drawn exactly as a fixed-trial run draws them: the
// runner cfg resolves to, one draw source, and each trial's stream
// positioned at (seed, index). It is how tests see the per-trial
// values the runner folds into its accumulators.
func trialTimes(t *testing.T, c *Compiled, cfg Config) []float64 {
	t.Helper()
	br, err := c.newBlockRunner(cfg, cfg.Trials, false)
	if err != nil {
		t.Fatal(err)
	}
	var ds drawSource
	br.initDrawSource(&ds)
	times := make([]float64, cfg.Trials)
	for i := range times {
		ds.beginTrial(br.seed, i)
		times[i] = br.trial(&ds)
	}
	return times
}

// goldenWant holds the outputs recorded before the batched inversion
// kernel was removed (it served the merged system's runs then), so
// any change to a seeded Fused stream fails here. The sobol summary
// rows were re-recorded when qmcReplicates rose from 8 to 256; the
// sobol samples rows, whose first 8 trials are point 0 of replicates
// 0-7 at either count, did not move.
var goldenWant = map[string][]uint64{
	"merged/pcg/fixed":              {0x4037a913ac5e42e6, 0x3fcd8250a433e786, 0x307b},
	"merged/pcg/adaptive":           {0x4037a524e97b468f, 0x3fc9c18e3bae9799, 0x4000},
	"merged/pcg/samples":            {0x404b097244f34fee, 0x4055e05dc3bc1cae, 0x40324bc4c5cdaf86, 0x4024373e461b3f05, 0x400090819e55afa4, 0x404b71fa75c863b2, 0x40395de9a325819d, 0x3fe1792584ab5537},
	"merged/sobol/fixed":            {0x4037f7b21dff8729, 0x3fa50d52c77906f4, 0x3000},
	"merged/sobol/adaptive":         {0x4037f6af1b0f19c1, 0x3f7df5bf382be666, 0x10000},
	"merged/sobol/samples":          {0x4045fdf905bae683, 0x40112156733f1911, 0x40337fe99f07d952, 0x40425d7c3b08a155, 0x4048308d076dd9fa, 0x4038366c762234dc, 0x3fdceed7fa7b1c9d, 0x40501190d8e303f4},
	"incommensurate/pcg/fixed":      {0x402f0f03fb8da34e, 0x3fc26ed776d4aa7a, 0x307b},
	"incommensurate/pcg/adaptive":   {0x402f197d6c9e70a9, 0x3fc03570060bdf39, 0x4000},
	"incommensurate/pcg/samples":    {0x40367a9d9f9f9e49, 0x40245e0b9753021f, 0x40191fad2c17b874, 0x400182d74c734bc3, 0x402a2ed00362f84f, 0x40368276d49a6480, 0x4028b1dc9b8f7d43, 0x400035ae85eef848},
	"incommensurate/sobol/fixed":    {0x402ee438feec4742, 0x3f9f06a935a4a70c, 0x3000},
	"incommensurate/sobol/adaptive": {0x402ef2d7d456b2cd, 0x3f7d0e6ee319f269, 0x10000},
	"incommensurate/sobol/samples":  {0x3fea7d8903076649, 0x40312134cbe6dcf7, 0x401535cbc53d556e, 0x4042e80d7a2f28f7, 0x40419b9886a05a6e, 0x403b54a35b66eb36, 0x40082ca131256ea5, 0x404797f69f23fc70},
}

// TestFusedSeededStreamGolden pins seeded Fused answers bit for bit
// across commits: the per-trial streams, the draw order of every trial
// path, the block-ordered merge and the adaptive round schedule. A
// change that moves any of them changes every published seeded table,
// so it must be deliberate. Architectures that fuse multiply-adds
// round differently, so only amd64 is pinned.
func TestFusedSeededStreamGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("seeded bits are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for system, comps := range goldenSystems(t) {
		c := mustCompile(t, comps)
		fs := c.fusedState()
		switch {
		case system == "incommensurate" && fs.merged != nil:
			t.Fatal("incommensurate pair unexpectedly merged")
		case system != "incommensurate" && fs.merged == nil:
			t.Fatalf("%s: no merged table", system)
		}
		for _, run := range goldenRuns {
			key := system + "/" + run.name
			got := goldenBits(t, c, run)
			want, ok := goldenWant[key]
			if !ok {
				t.Errorf("%s: no recorded output; got %#v", key, got)
				continue
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: seeded output changed\n got %#v\nwant %#v", key, got, want)
			}
		}
	}
}
