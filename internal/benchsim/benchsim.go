// Package benchsim is the one implementation of the benchmark-trace
// pipeline: generate a bundled workload, run it through the Table 1
// timing simulator, and (optionally) union the unit traces into the
// processor-level masking trace. The public Spec compiler
// (soferr.Compiler) simulates, unions and caches every benchmark trace
// a Spec, a sweep, the query server or the experiment harness uses;
// soferr.SimulateBenchmark and `soferr workloads` call Simulate
// directly for one-off runs. So every entry point accepts the same
// benchmark names, and there is no second copy of the generator
// lookup, the unit rates, the union order, or the coarsening window to
// drift.
package benchsim

import (
	"fmt"
	"io"

	"github.com/soferr/soferr/internal/design"
	"github.com/soferr/soferr/internal/isa"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/turandot"
	"github.com/soferr/soferr/internal/workload"
)

// The representative benchmark pair for workload families and the
// combined schedule (the paper leaves the choice open): gzip stands in
// for SPECint, swim for SPECfp, and the combined schedule runs one
// half-day of each.
const (
	SPECIntRepresentative = "gzip"
	SPECFPRepresentative  = "swim"
)

// CoarsenWindow is the canonical segment-merge window for processor
// unions: it preserves the AVF exactly and distorts survival
// quantities only at O((rate x window)^2) — unmeasurable at any rate
// in the design space — while making Monte-Carlo lookups on low-IPC
// benchmarks several times faster.
const CoarsenWindow = 200000

// Simulate generates the named benchmark (phased-program names are
// accepted alongside the plain profiles) and runs it on the Table 1
// machine, returning the four component masking traces and the run's
// statistics. log, when non-nil, receives one progress line before the
// simulation.
func Simulate(name string, instructions int, seed uint64, log io.Writer) (*turandot.ComponentTraces, turandot.Stats, error) {
	var (
		prog []isa.Inst
		err  error
	)
	if pp, perr := workload.PhasedByName(name); perr == nil {
		prog, err = pp.Generate(instructions, seed)
	} else {
		var prof workload.Profile
		prof, err = workload.ByName(name)
		if err != nil {
			return nil, turandot.Stats{}, err
		}
		prog, err = prof.Generate(instructions, seed)
	}
	if err != nil {
		return nil, turandot.Stats{}, err
	}
	sim, err := turandot.New(turandot.DefaultConfig())
	if err != nil {
		return nil, turandot.Stats{}, err
	}
	if log != nil {
		fmt.Fprintf(log, "simulating %s (%d instructions)\n", name, len(prog))
	}
	res, err := sim.Run(prog)
	if err != nil {
		return nil, turandot.Stats{}, fmt.Errorf("simulate %s: %w", name, err)
	}
	return &res.Traces, res.Stats, nil
}

// ProcessorUnion builds the processor-level masking trace of a
// simulated benchmark: the rate-weighted union of the integer,
// floating-point, and decode unit traces (Section 4.2 applies these
// three simultaneously for processor-level failure), coarsened with
// the canonical window.
func ProcessorUnion(name string, t *turandot.ComponentTraces) (*trace.Piecewise, error) {
	intR, fpR, decR := design.UnitRatesPerSecond()
	union, err := trace.WeightedUnion(
		[]float64{intR, fpR, decR},
		[]*trace.Piecewise{t.Int, t.FP, t.Decode},
	)
	if err != nil {
		return nil, fmt.Errorf("union %s: %w", name, err)
	}
	union, err = trace.Coarsen(union, CoarsenWindow)
	if err != nil {
		return nil, fmt.Errorf("coarsen %s: %w", name, err)
	}
	return union, nil
}
