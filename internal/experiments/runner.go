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
	"sync"

	"github.com/soferr/soferr/internal/benchsim"
	"github.com/soferr/soferr/internal/design"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/turandot"
	"github.com/soferr/soferr/internal/workload"
)

// Options configures an experiment run. The zero value gives the
// defaults used for the recorded results in EXPERIMENTS.md.
type Options struct {
	// Trials is the Monte-Carlo trial count per point (default 200000;
	// the paper used 1e6 — see DESIGN.md on precision).
	Trials int
	// Seed drives all stochastic components deterministically.
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
	if o.Instructions <= 0 {
		o.Instructions = benchsim.DefaultInstructions
	}
	if o.Quick {
		if o.Trials > 30000 {
			o.Trials = 30000
		}
		if o.Instructions > 60000 {
			o.Instructions = 60000
		}
	}
	return o
}

// Runner executes experiments, caching benchmark simulations so that
// experiments sharing workloads (Fig 6a, Sections 5.1/5.4) do not
// re-simulate.
type Runner struct {
	opt Options

	mu     sync.Mutex
	traces map[string]*turandot.ComponentTraces
	procs  map[string]*trace.Piecewise
}

// NewRunner builds a runner with the given options.
func NewRunner(opt Options) *Runner {
	return &Runner{
		opt:    opt.withDefaults(),
		traces: make(map[string]*turandot.ComponentTraces),
		procs:  make(map[string]*trace.Piecewise),
	}
}

// Options returns the runner's effective options.
func (r *Runner) Options() Options { return r.opt }

func (r *Runner) logf(format string, args ...interface{}) {
	if r.opt.Log != nil {
		fmt.Fprintf(r.opt.Log, format+"\n", args...)
	}
}

// benchTraces simulates one benchmark on the Table 1 machine and
// returns the four component masking traces, cached per benchmark.
// Phased-program names (workload.PhasedByName) are accepted too. The
// pipeline itself is the shared internal/benchsim implementation, so
// harness-built traces are bit-identical to Spec/HTTP-built ones.
func (r *Runner) benchTraces(name string) (*turandot.ComponentTraces, error) {
	r.mu.Lock()
	if t, ok := r.traces[name]; ok {
		r.mu.Unlock()
		return t, nil
	}
	r.mu.Unlock()

	t, _, err := benchsim.Simulate(name, r.opt.Instructions, r.opt.Seed, r.opt.Log)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.traces[name] = t
	r.mu.Unlock()
	return t, nil
}

// ProcessorTrace returns the processor-level masking trace of a benchmark:
// the rate-weighted union of the integer, floating-point, and decode
// unit traces (Section 4.2 applies these three simultaneously for
// processor-level failure), cached per benchmark.
func (r *Runner) ProcessorTrace(name string) (*trace.Piecewise, error) {
	r.mu.Lock()
	if p, ok := r.procs[name]; ok {
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()

	t, err := r.benchTraces(name)
	if err != nil {
		return nil, err
	}
	union, err := benchsim.ProcessorUnion(name, t)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.procs[name] = union
	r.mu.Unlock()
	return union, nil
}

// WorkloadTrace builds the masking trace for a Table 2 workload family.
// SPEC families use the named representative benchmark's processor
// trace; day and week are the Section 4.2 schedules; combined
// concatenates two benchmark processor traces in a 24-hour loop.
func (r *Runner) WorkloadTrace(w design.Workload) (trace.Trace, error) {
	switch w {
	case design.WorkloadDay:
		return workload.Day()
	case design.WorkloadWeek:
		return workload.Week()
	case design.WorkloadCombined:
		a, err := r.ProcessorTrace(combinedBenchA)
		if err != nil {
			return nil, err
		}
		b, err := r.ProcessorTrace(combinedBenchB)
		if err != nil {
			return nil, err
		}
		return workload.Combined(a, b)
	case design.WorkloadSPECInt:
		return r.ProcessorTrace(specIntRepresentative)
	case design.WorkloadSPECFP:
		return r.ProcessorTrace(specFPRepresentative)
	default:
		return nil, fmt.Errorf("experiments: unknown workload %v", w)
	}
}

// Representative benchmarks for workload families and the combined
// schedule: the shared internal/benchsim definition, so harness-built
// and Spec-built systems agree by construction.
const (
	specIntRepresentative = benchsim.SPECIntRepresentative
	specFPRepresentative  = benchsim.SPECFPRepresentative
	combinedBenchA        = benchsim.SPECIntRepresentative
	combinedBenchB        = benchsim.SPECFPRepresentative
)

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
