// Package experiments regenerates every table and figure of the paper's
// evaluation: the Table 1 configuration, the Table 2 design space, the
// analytic Figures 3 and 4, the Monte-Carlo design-space Figures 5 and
// 6(a)/6(b), and the Section 5.1 / 5.4 validation results. Each
// experiment returns a Table whose rows mirror what the paper reports.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/benchsim"
	"github.com/soferr/soferr/internal/design"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/trace"
)

// Options configures an experiment run. The zero value gives the
// defaults used for the recorded results in EXPERIMENTS.md.
type Options struct {
	// Trials is the Monte-Carlo trial count per point (default 200000;
	// the paper used 1e6 — see DESIGN.md on precision).
	Trials int
	// Seed drives all stochastic components deterministically: the
	// Monte-Carlo streams, and the benchmark simulations as the
	// Compiler's SimSeed, where 0 means the default simulation seed 1
	// (as a Spec's sim_seed does).
	Seed uint64
	// Instructions is the per-benchmark simulated instruction count
	// (default 300000; the paper simulated 100M Turandot instructions).
	Instructions int
	// Quick shrinks grids and trial counts for use in tests.
	Quick bool
	// Engine selects the Monte-Carlo trial implementation (default
	// Fused: every design-space trace is a materialized Piecewise, so
	// the system-level merged-hazard sampler applies exactly and the
	// sweep cost becomes independent of rate, AVF, and component
	// count; traces that cannot merge fall back per component, so the
	// default is exact for every experiment).
	Engine montecarlo.Engine
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 200000
	}
	if o.Quick {
		if o.Trials > 30000 {
			o.Trials = 30000
		}
		if o.Instructions <= 0 || o.Instructions > 60000 {
			o.Instructions = 60000
		}
	}
	return o
}

// Runner executes experiments. Its Compiler builds every benchmark
// trace, so experiments sharing workloads (Fig 6a, Sections 5.1/5.4)
// simulate each benchmark once, exactly as a Spec naming it would.
type Runner struct {
	opt  Options
	comp *soferr.Compiler
}

// NewRunner builds a runner with the given options.
func NewRunner(opt Options) *Runner {
	opt = opt.withDefaults()
	return &Runner{
		opt:  opt,
		comp: &soferr.Compiler{Instructions: opt.Instructions, SimSeed: opt.Seed, Log: opt.Log},
	}
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.opt.Log != nil {
		fmt.Fprintf(r.opt.Log, format+"\n", args...)
	}
}

// benchmarkTrace returns one unit trace of a simulated benchmark (""
// for the processor-level union).
func (r *Runner) benchmarkTrace(name, unit string) (trace.Trace, error) {
	return r.comp.BuildTrace(soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: name, Unit: unit})
}

// workloadTrace builds the masking trace for a Table 2 workload family:
// day and week are the Section 4.2 schedules, combined their 24-hour
// loop of two benchmark halves, and each SPEC family its representative
// benchmark's processor trace.
func (r *Runner) workloadTrace(w design.Workload) (trace.Trace, error) {
	switch w {
	case design.WorkloadDay:
		return r.comp.BuildTrace(soferr.TraceSpec{Kind: soferr.TraceKindDay})
	case design.WorkloadWeek:
		return r.comp.BuildTrace(soferr.TraceSpec{Kind: soferr.TraceKindWeek})
	case design.WorkloadCombined:
		return r.comp.BuildTrace(soferr.TraceSpec{Kind: soferr.TraceKindCombined})
	case design.WorkloadSPECInt:
		return r.benchmarkTrace(benchsim.SPECIntRepresentative, "")
	case design.WorkloadSPECFP:
		return r.benchmarkTrace(benchsim.SPECFPRepresentative, "")
	default:
		return nil, fmt.Errorf("experiments: unknown workload %v", w)
	}
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	// ID is the short identifier used by the CLI (e.g. "fig3").
	ID string
	// Title is a one-line description.
	Title string
	// Paper cites where the artifact appears in the paper.
	Paper string
	// Run executes the experiment. Cancelling ctx aborts in-flight
	// Monte-Carlo sweeps and returns ctx.Err().
	Run func(r *Runner, ctx context.Context) (*Table, error)
}

var registry = []Experiment{
	{ID: "table1", Title: "Base POWER4-like processor configuration", Paper: "Table 1", Run: (*Runner).Table1},
	{ID: "table2", Title: "Design space explored", Paper: "Table 2", Run: (*Runner).Table2},
	{ID: "fig3", Title: "AVF-step error for a large cache on a busy/idle loop", Paper: "Figure 3", Run: (*Runner).Fig3},
	{ID: "fig4", Title: "SOFR-step error for near-exponential components", Paper: "Figure 4", Run: (*Runner).Fig4},
	{ID: "sec51", Title: "AVF+SOFR vs Monte Carlo: uniprocessor running SPEC", Paper: "Section 5.1", Run: (*Runner).Sec51},
	{ID: "fig5", Title: "AVF-step error across the design space (synthesized workloads)", Paper: "Figure 5", Run: (*Runner).Fig5},
	{ID: "fig6a", Title: "SOFR-step error across the design space (SPEC)", Paper: "Figure 6(a)", Run: (*Runner).Fig6a},
	{ID: "fig6b", Title: "SOFR-step error across the design space (synthesized)", Paper: "Figure 6(b)", Run: (*Runner).Fig6b},
	{ID: "sec54", Title: "SoftArch vs Monte Carlo across the design space", Paper: "Section 5.4", Run: (*Runner).Sec54},
	{ID: "extdist", Title: "TTF distribution shape vs the exponential assumption", Paper: "extension", Run: (*Runner).ExtDist},
	{ID: "extphase", Title: "SOFR error vs phase-staggered clusters", Paper: "extension", Run: (*Runner).ExtPhase},
	{ID: "extphases", Title: "SOFR error with and without workload macro-phases", Paper: "extension", Run: (*Runner).ExtPhases},
}

// All returns every registered experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ids)
}
