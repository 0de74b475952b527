package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
)

// fusedScalingEntry records the Fused engine's per-trial cost at one
// component count N.
type fusedScalingEntry struct {
	Components int     `json:"components"`
	FusedNsOp  float64 `json:"fused_ns_per_trial"`
	FusedAlloc int64   `json:"fused_allocs_per_trial"`
}

// qmcReport is the `qmc` section of BENCH_fused.json: adaptive
// trials-to-target under the PCG sampler vs the scrambled-Sobol
// sampler on the paper's SPEC-trace profile.
type qmcReport struct {
	Target      float64 `json:"target_rel_stderr"`
	PCGTrials   int     `json:"pcg_trials_to_target"`
	PCGRelSE    float64 `json:"pcg_rel_stderr"`
	SobolTrials int     `json:"sobol_trials_to_target"`
	SobolRelSE  float64 `json:"sobol_rel_stderr"`
	TrialsRatio float64 `json:"sobol_trials_fraction_of_pcg"`
	TrialsSaved float64 `json:"trials_saved_fraction"`
}

// fusedAdaptiveReport compares a fixed-trial run against an adaptive
// TargetRelStdErr run on the paper's SPEC-trace profile.
type fusedAdaptiveReport struct {
	Target          float64 `json:"target_rel_stderr"`
	FixedTrials     int     `json:"fixed_trials"`
	FixedNs         float64 `json:"fixed_wall_ns"`
	FixedRelStdErr  float64 `json:"fixed_rel_stderr"`
	AdaptiveTrials  int     `json:"adaptive_trials"`
	AdaptiveNs      float64 `json:"adaptive_wall_ns"`
	AdaptiveRelSE   float64 `json:"adaptive_rel_stderr"`
	TrialsSaved     float64 `json:"trials_saved_fraction"`
	WallTimeSpeedup float64 `json:"wall_time_speedup"`
}

// fusedBenchReport is the schema of BENCH_fused.json: trial-cost
// scaling in the component count N (flat: one merged-table draw per
// trial), the QMC sampler, and the adaptive-precision comparison.
type fusedBenchReport struct {
	GoVersion string              `json:"go_version"`
	GOARCH    string              `json:"goarch"`
	Scaling   []fusedScalingEntry `json:"scaling"`
	QMC       qmcReport           `json:"qmc"`
	Adaptive  fusedAdaptiveReport `json:"adaptive"`
}

// fusedBenchComponents builds N heterogeneous components sharing one
// 24-hour period with distinct duty cycles and rates: every component
// contributes its own segments to the merged hazard table, so the
// fused table genuinely grows with N while trial cost stays O(log S).
func fusedBenchComponents(n int) []montecarlo.Component {
	comps := make([]montecarlo.Component, n)
	for i := range comps {
		busy := float64(1 + i%17)
		tr, err := trace.BusyIdle(24, busy)
		if err != nil {
			panic(err) // static construction; cannot fail
		}
		comps[i] = montecarlo.Component{
			Name:  fmt.Sprintf("c%d", i),
			Rate:  1e-4 * float64(1+i%5),
			Trace: tr,
		}
	}
	return comps
}

// runFusedBench measures the Fused engine and writes BENCH_fused.json:
// per-trial ns for N in {1, 4, 16, 64, 256} components (expect flat),
// adaptive trials-to-target vs the fixed-200k default on the SPEC
// trace, and PCG-vs-Sobol trials to the same target.
func runFusedBench(ctx context.Context, stdout, stderr io.Writer, outPath string, verbose bool) error {
	logf := func(format string, args ...interface{}) {
		if verbose {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	report := fusedBenchReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
	}

	// measure returns single-threaded ns and allocations per trial of
	// the compiled system, after a warm-up run so the lazily built
	// merged table is not billed to the trials.
	measure := func(c *montecarlo.Compiled) (float64, int64, error) {
		cfg := montecarlo.Config{Trials: 64, Seed: 1, Workers: 1}
		if _, err := c.MTTF(ctx, cfg); err != nil {
			return 0, 0, err
		}
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			cfg.Trials = b.N
			if _, err := c.MTTF(ctx, cfg); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		})
		if benchErr != nil {
			return 0, 0, benchErr
		}
		if r.N == 0 {
			return 0, 0, fmt.Errorf("no iterations")
		}
		return float64(r.T.Nanoseconds()) / float64(r.N), r.AllocsPerOp(), nil
	}

	for _, n := range []int{1, 4, 16, 64, 256} {
		compiled, err := montecarlo.Compile(fusedBenchComponents(n))
		if err != nil {
			return err
		}
		logf("bench fused scaling N=%d", n)
		ns, allocs, err := measure(compiled)
		if err != nil {
			return fmt.Errorf("bench fused scaling N=%d: %w", n, err)
		}
		report.Scaling = append(report.Scaling, fusedScalingEntry{Components: n, FusedNsOp: ns, FusedAlloc: allocs})
		fmt.Fprintf(stdout, "%-22s N=%-4d fused %8.1f ns/trial\n", "FusedScaling", n, ns)
	}

	// Adaptive precision on the paper's SPEC-trace profile: the gzip
	// processor trace at 1e6 errors/year, as the acceptance benchmarks
	// use. Fixed 200k trials vs TargetRelStdErr = 1%.
	logf("simulating gzip for the adaptive profile")
	simRes, err := soferr.SimulateBenchmark("gzip", 50000, 1)
	if err != nil {
		return err
	}
	specComp := []montecarlo.Component{{
		Name: "int", Rate: units.PerYearToPerSecond(1e6), Trace: simRes.Int,
	}}
	compiled, err := montecarlo.Compile(specComp)
	if err != nil {
		return err
	}
	const target = 0.01
	ad := fusedAdaptiveReport{Target: target, FixedTrials: soferr.DefaultTrials}
	logf("bench adaptive fixed-%d", ad.FixedTrials)
	var fixedRes montecarlo.Result
	rFixed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := compiled.MTTF(ctx, montecarlo.Config{Trials: soferr.DefaultTrials, Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			fixedRes = res
		}
	})
	logf("bench adaptive target-%g", target)
	var adRes montecarlo.Result
	rAdaptive := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := compiled.MTTF(ctx, montecarlo.Config{
				Trials: soferr.DefaultTrials, Seed: uint64(i + 1), TargetRelStdErr: target,
			})
			if err != nil {
				b.Fatal(err)
			}
			adRes = res
		}
	})
	if rFixed.N == 0 || rAdaptive.N == 0 {
		return fmt.Errorf("bench adaptive: benchmark produced no iterations")
	}
	ad.FixedNs = float64(rFixed.T.Nanoseconds()) / float64(rFixed.N)
	ad.AdaptiveNs = float64(rAdaptive.T.Nanoseconds()) / float64(rAdaptive.N)
	ad.FixedRelStdErr = fixedRes.RelStdErr()
	ad.AdaptiveTrials = adRes.Trials
	ad.AdaptiveRelSE = adRes.RelStdErr()
	ad.TrialsSaved = 1 - float64(ad.AdaptiveTrials)/float64(ad.FixedTrials)
	ad.WallTimeSpeedup = ad.FixedNs / ad.AdaptiveNs
	report.Adaptive = ad
	fmt.Fprintf(stdout, "%-22s fixed %d trials (RSE %.4f) vs adaptive %d trials to RSE<=%g: %.1fx wall time\n",
		"FusedAdaptive", ad.FixedTrials, ad.FixedRelStdErr, ad.AdaptiveTrials, target, ad.WallTimeSpeedup)

	// QMC trials-to-target on the same SPEC profile: the adaptive loop
	// stops at the first block boundary where the target is met, so the
	// trial counts directly compare sampler efficiency.
	qmc := qmcReport{Target: target}
	for _, sampler := range []montecarlo.Sampler{montecarlo.PCG, montecarlo.Sobol} {
		logf("bench qmc %s target-%g", sampler, target)
		res, err := compiled.MTTF(ctx, montecarlo.Config{
			Trials: soferr.DefaultTrials, Seed: 1, TargetRelStdErr: target, Sampler: sampler,
		})
		if err != nil {
			return err
		}
		switch sampler {
		case montecarlo.PCG:
			qmc.PCGTrials, qmc.PCGRelSE = res.Trials, res.RelStdErr()
		case montecarlo.Sobol:
			qmc.SobolTrials, qmc.SobolRelSE = res.Trials, res.RelStdErr()
		}
	}
	qmc.TrialsRatio = float64(qmc.SobolTrials) / float64(qmc.PCGTrials)
	qmc.TrialsSaved = 1 - qmc.TrialsRatio
	report.QMC = qmc
	fmt.Fprintf(stdout, "%-22s RSE<=%g: pcg %d trials vs sobol %d trials (%.2fx fewer)\n",
		"QMCAdaptive", target, qmc.PCGTrials, qmc.SobolTrials, float64(qmc.PCGTrials)/float64(qmc.SobolTrials))

	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", outPath)
	}
	return nil
}
