package soferr

import (
	"github.com/soferr/soferr/internal/benchsim"
	"github.com/soferr/soferr/internal/workload"
)

// Benchmarks returns the names of the bundled SPEC CPU2000-like
// synthetic benchmarks (9 integer, 12 floating point).
func Benchmarks() []string { return workload.Names() }

// BenchmarkResult bundles the outcome of simulating one benchmark on
// the base POWER4-like machine: timing statistics and the masking
// traces of the four components studied in the paper (Section 4.1).
type BenchmarkResult struct {
	// Name is the benchmark simulated.
	Name string
	// Cycles and Instructions describe the run; IPC = Instructions/Cycles.
	Cycles       uint64
	Instructions uint64
	// BranchMispredictRate is the fraction of branches mispredicted.
	BranchMispredictRate float64
	// Decode, Int, FP, and RegFile are the masking traces of the
	// instruction-decode unit, integer units, floating-point units, and
	// register file.
	Decode  Trace
	Int     Trace
	FP      Trace
	RegFile Trace
}

// IPC returns retired instructions per cycle.
func (r *BenchmarkResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// SimulateBenchmark generates the named synthetic benchmark and runs it
// through the cycle-level out-of-order timing simulator configured per
// the paper's Table 1, returning the component masking traces. Besides
// the Benchmarks names it accepts the phased programs (phased-int,
// phased-fp) that a Spec's benchmark trace may name.
//
// instructions controls trace length (the paper used 100M; a few
// hundred thousand give stable AVFs in seconds of CPU time). seed makes
// generation deterministic.
func SimulateBenchmark(name string, instructions int, seed uint64) (*BenchmarkResult, error) {
	traces, stats, err := benchsim.Simulate(name, instructions, seed, nil)
	if err != nil {
		return nil, err
	}
	return &BenchmarkResult{
		Name:                 name,
		Cycles:               stats.Cycles,
		Instructions:         stats.Instructions,
		BranchMispredictRate: stats.MispredictRate(),
		Decode:               traces.Decode,
		Int:                  traces.Int,
		FP:                   traces.FP,
		RegFile:              traces.RegFile,
	}, nil
}
