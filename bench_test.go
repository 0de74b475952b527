// Benchmarks regenerating every table and figure in the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus
// micro-benchmarks of the substrates that dominate their cost.
//
// Each BenchmarkFigN/BenchmarkTableN/BenchmarkSecN runs the full
// experiment that reproduces the corresponding paper artifact, using
// reduced grids (Quick) so a complete -bench=. pass stays laptop-sized.
// The recorded full-scale tables live in EXPERIMENTS.md.
package soferr_test

import (
	"context"
	"testing"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/experiments"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/turandot"
	"github.com/soferr/soferr/internal/workload"
)

// benchRunner is shared across experiment benchmarks so that simulator
// runs are cached once, as the CLI does.
func benchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{
		Quick: true, Trials: 20000, Instructions: 50000, Seed: 1,
	})
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(r, context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkSec51(b *testing.B)  { runExperiment(b, "sec51") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6a(b *testing.B)  { runExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { runExperiment(b, "fig6b") }
func BenchmarkSec54(b *testing.B)  { runExperiment(b, "sec54") }

// --- Substrate micro-benchmarks ---

// BenchmarkSimulator measures timing-simulator throughput in
// instructions retired per benchmark-op.
func BenchmarkSimulator(b *testing.B) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := prof.Generate(100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := turandot.New(turandot.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGen measures synthetic trace generation.
func BenchmarkWorkloadGen(b *testing.B) {
	prof, err := workload.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prof.Generate(100000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloTrials measures Monte-Carlo trial throughput on a
// low-duty-cycle component (busy 1h per 24h day, AVF ~ 0.04; b.N =
// trials). Low AVF is the regime that dominates the design-space
// sweeps; the Fused trial's cost is independent of it.
func BenchmarkMonteCarloTrials(b *testing.B) {
	batch, err := trace.BusyIdle(24*3600, 3600)
	if err != nil {
		b.Fatal(err)
	}
	comp := montecarlo.Component{Rate: 1e-4, Trace: batch}
	if _, err := montecarlo.ComponentMTTF(context.Background(), comp, montecarlo.Config{
		Trials: b.N, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonteCarloSPECTrace measures trials against a real
// simulator trace with ~10^4 segments.
func BenchmarkMonteCarloSPECTrace(b *testing.B) {
	res, err := soferr.SimulateBenchmark("gzip", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	comp := soferr.Component{Name: "int", RatePerYear: 1e6, Trace: res.Int}
	b.ResetTimer()
	if _, err := soferr.MonteCarloMTTF([]soferr.Component{comp},
		soferr.Query{Trials: b.N, Seed: 1}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRepeatedMonteCarloQuery measures the build-once/query-many
// payoff of the compiled System: each op is one 20k-trial Monte-Carlo
// MTTF query at fixed settings. The system variant compiles once and
// answers repeats from its (deterministic, hence transparent) query
// cache; the flat variant pays validation, unit conversion, engine
// precomputation, and the full trial loop every call.
func BenchmarkRepeatedMonteCarloQuery(b *testing.B) {
	batch, err := trace.BusyIdle(24*3600, 3600)
	if err != nil {
		b.Fatal(err)
	}
	comps := []soferr.Component{{Name: "batch", RatePerYear: 3153.6, Trace: batch}}
	const trials = 20000
	b.Run("system", func(b *testing.B) {
		sys, err := soferr.NewSystem(comps)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
				soferr.WithTrials(trials), soferr.WithSeed(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := soferr.MonteCarloMTTF(comps, soferr.Query{
				Trials: trials, Seed: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRepeatedSoftArchQuery measures the same amortization for the
// deterministic SoftArch method: the flat call rebuilds the
// rate-weighted union and re-integrates survival per call; the compiled
// System computes both once.
func BenchmarkRepeatedSoftArchQuery(b *testing.B) {
	res, err := soferr.SimulateBenchmark("swim", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	comps := []soferr.Component{
		{Name: "int", RatePerYear: 2.3e-6, Trace: res.Int},
		{Name: "fp", RatePerYear: 4.5e-6, Trace: res.FP},
		{Name: "decode", RatePerYear: 3.3e-6, Trace: res.Decode},
		{Name: "regfile", RatePerYear: 1.0e-4, Trace: res.RegFile},
	}
	b.Run("system", func(b *testing.B) {
		sys, err := soferr.NewSystem(comps)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.MTTF(context.Background(), soferr.SoftArch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := soferr.SoftArchMTTF(comps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSurvivalIntegral measures the SoftArch closed-form path on a
// simulator trace: one walk over its segments per call.
func BenchmarkSurvivalIntegral(b *testing.B) {
	res, err := soferr.SimulateBenchmark("swim", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := res.FP
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		integral, _ := tr.SurvivalIntegral(1e-3 * float64(1+i%8))
		sink += integral
	}
	_ = sink
}

// BenchmarkTraceLookup measures VulnAt on a segment-rich trace.
func BenchmarkTraceLookup(b *testing.B) {
	res, err := soferr.SimulateBenchmark("mcf", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := res.Int
	period := tr.Period()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tr.VulnAt(float64(i) * period / 1e6)
	}
	_ = sink
}

// BenchmarkWeightedUnion measures merging unit traces into a processor
// trace.
func BenchmarkWeightedUnion(b *testing.B) {
	res, err := soferr.SimulateBenchmark("gzip", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ts := []*trace.Piecewise{
		res.Int.(*trace.Piecewise),
		res.FP.(*trace.Piecewise),
		res.Decode.(*trace.Piecewise),
	}
	w := []float64{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.WeightedUnion(w, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftArchSystem measures the exact system-MTTF path used by
// Section 5.4 (union + survival integral) on simulator traces.
func BenchmarkSoftArchSystem(b *testing.B) {
	res, err := soferr.SimulateBenchmark("swim", 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	comps := []soferr.Component{
		{Name: "int", RatePerYear: 2.3e-6, Trace: res.Int},
		{Name: "fp", RatePerYear: 4.5e-6, Trace: res.FP},
		{Name: "decode", RatePerYear: 3.3e-6, Trace: res.Decode},
		{Name: "regfile", RatePerYear: 1.0e-4, Trace: res.RegFile},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := soferr.SoftArchMTTF(comps); err != nil {
			b.Fatal(err)
		}
	}
}
