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
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
)

// benchEntry is one recorded micro-benchmark measurement.
type benchEntry struct {
	Name        string  `json:"name"`
	Engine      string  `json:"engine"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchReport is the schema of BENCH_mc.json: the Monte-Carlo query
// micro-benchmarks and their headline speedup, so the perf trajectory
// is recorded alongside the code.
type benchReport struct {
	GoVersion  string       `json:"go_version"`
	GOARCH     string       `json:"goarch"`
	Benchmarks []benchEntry `json:"benchmarks"`
	// SpeedupSystem records the repeated-query speedup of a compiled
	// soferr.System over N independent flat MonteCarloMTTF calls at
	// identical settings (the build-once/query-forever headline).
	SpeedupSystem map[string]float64 `json:"speedup_system_vs_flat,omitempty"`
}

// runBench measures the compiled-System repeated-query path against
// flat MonteCarloMTTF calls on the day-schedule workload
// (BenchmarkRepeatedMonteCarloQuery) and writes the JSON report.
func runBench(ctx context.Context, stdout, stderr io.Writer, outPath string, verbose bool) error {
	logf := func(format string, args ...interface{}) {
		if verbose {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	// Low-duty-cycle loop (busy 1h per 24h day, AVF ~ 0.04). Mirrors
	// BenchmarkRepeatedMonteCarloQuery.
	batch, err := trace.BusyIdle(24*3600, 3600)
	if err != nil {
		return err
	}

	const trials = 20000
	comps := []soferr.Component{{
		Name: "batch", RatePerYear: units.PerSecondToPerYear(1e-4), Trace: batch,
	}}
	sys, err := soferr.NewSystem(comps)
	if err != nil {
		return err
	}
	opts := []soferr.EstimateOption{soferr.WithTrials(trials), soferr.WithSeed(1)}
	logf("bench RepeatedMonteCarloQuery/system")
	var queryErr error
	rSys := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.MTTF(ctx, soferr.MonteCarlo, opts...); err != nil {
				queryErr = err
				b.Fatal(err)
			}
		}
	})
	if queryErr != nil {
		return fmt.Errorf("bench RepeatedMonteCarloQuery/system: %w", queryErr)
	}
	logf("bench RepeatedMonteCarloQuery/flat")
	rFlat := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := soferr.MonteCarloMTTF(comps, soferr.Query{
				Trials: trials, Seed: 1,
			}); err != nil {
				queryErr = err
				b.Fatal(err)
			}
		}
	})
	if queryErr != nil {
		return fmt.Errorf("bench RepeatedMonteCarloQuery/flat: %w", queryErr)
	}
	// b.Fatal aborts the benchmark goroutine and Benchmark returns a
	// zero-N result; surface that instead of recording Inf/NaN.
	if rSys.N == 0 || rFlat.N == 0 {
		return fmt.Errorf("bench RepeatedMonteCarloQuery: benchmark produced no iterations")
	}
	sysNs := float64(rSys.T.Nanoseconds()) / float64(rSys.N)
	flatNs := float64(rFlat.T.Nanoseconds()) / float64(rFlat.N)
	report := benchReport{
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		SpeedupSystem: map[string]float64{"RepeatedMonteCarloQuery": flatNs / sysNs},
	}
	for _, entry := range []struct {
		name string
		ns   float64
		res  testing.BenchmarkResult
	}{{"system", sysNs, rSys}, {"flat", flatNs, rFlat}} {
		report.Benchmarks = append(report.Benchmarks, benchEntry{
			Name: "RepeatedMonteCarloQuery", Engine: entry.name, NsPerOp: entry.ns,
			Iterations:  entry.res.N,
			AllocsPerOp: entry.res.AllocsPerOp(),
			BytesPerOp:  entry.res.AllocedBytesPerOp(),
		})
		fmt.Fprintf(stdout, "%-22s %-11s %14.1f ns/op\n", "RepeatedMCQuery", entry.name, entry.ns)
	}
	fmt.Fprintf(stdout, "%-22s compiled System is %.0fx faster than flat calls\n",
		"RepeatedMCQuery", report.SpeedupSystem["RepeatedMonteCarloQuery"])

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
