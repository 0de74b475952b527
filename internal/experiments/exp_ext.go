package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/design"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/sofr"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/workload"
)

// The two experiments below extend the paper along the future-work
// directions its conclusions motivate: measuring the failure-time
// distribution directly (the object the SOFR step assumes exponential),
// and relaxing the all-components-in-phase worst case of the cluster
// analysis.

// ExtDist measures the shape of the time-to-failure distribution for
// the day workload across raw error rates: coefficient of variation
// (CV, = 1 for exponential) and Kolmogorov-Smirnov distance from the
// exponential with the same mean. It quantifies *how* the SOFR
// assumption fails, not just by how much the MTTF moves. Every column
// is exact: the mean, CV and KS distance come from the day trace's
// hazard table in closed form (trace.MergedExposure.TTFShape) and the
// median from the exact failure quantile, so the table depends on no
// engine, seed or trial count.
func (r *Runner) ExtDist(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "extdist",
		Title: "Extension: TTF distribution shape vs exponential, day workload",
		Header: []string{
			"NxS", "MTTF", "CV (exp: 1)", "KS vs exp", "median/mean (exp: 0.69)",
		},
	}
	grid := []float64{1e8, 1e9, 1e10, 1e11, 1e12}
	if r.opt.Quick {
		grid = []float64{1e8, 1e11}
	}
	day, err := workload.Day()
	if err != nil {
		return nil, err
	}
	for _, ns := range grid {
		rate := design.RatePerSecond(ns, 1)
		r.logf("extdist: NxS=%g", ns)
		table, err := trace.NewMergedExposure([]float64{rate}, []*trace.Piecewise{day}, 0)
		if err != nil {
			return nil, err
		}
		mean, second, ks := table.TTFShape()
		c, err := montecarlo.Compile([]montecarlo.Component{{Rate: rate, Trace: day}})
		if err != nil {
			return nil, err
		}
		median, err := c.ExactFailureQuantile(0.5)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmtSci(ns), fmtSeconds(mean),
			fmt.Sprintf("%.3f", math.Sqrt(second/(mean*mean)-1)),
			fmt.Sprintf("%.3f", ks),
			fmt.Sprintf("%.3f", median/mean),
		)
	}
	t.Notes = append(t.Notes,
		"at small NxS the masked TTF is exponential (CV=1, KS~0): Section 3.2.1's regime",
		"non-exponentiality peaks at intermediate NxS (rate x busy-window ~ 1), where idle nights punch holes in the TTF density no exponential can match",
		"at very large NxS nearly every failure lands inside the first busy window and the TTF is again nearly exponential in shape (truncated), though the MTTF itself is half the SOFR prediction",
		"every column is exact (closed form on the day trace's hazard table), so no -engine, -seed or -trials setting moves it")
	return t, nil
}

// ExtPhase evaluates the SOFR error for a day-workload cluster whose
// nodes are phase-staggered instead of in phase. k stagger groups shift
// the busy window by period/k each; k=1 is the paper's in-phase worst
// case, and large k approximates a globally load-balanced fleet.
func (r *Runner) ExtPhase(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "extphase",
		Title: "Extension: SOFR error vs phase stagger, day workload cluster",
		Header: []string{
			"stagger groups", "C", "NxS", "SOFR MTTF", "MC MTTF", "rel err",
		},
	}
	const (
		c  = 5000
		ns = 1e8
	)
	day, err := workload.Day()
	if err != nil {
		return nil, err
	}
	rateY := design.RatePerYear(ns, 1)
	staggers := []int{1, 2, 4, 8, 24}
	if r.opt.Quick {
		staggers = []int{1, 24}
	}
	// Per-component MTTF is phase-independent (a shift does not change
	// a single component's failure law from its own start of time), so
	// SOFR's estimate is the same for every stagger.
	comp, err := r.mcMTTF(ctx, rateY, day, 0xFA5E)
	if err != nil {
		return nil, err
	}
	sofrMTTF, err := sofr.Identical(comp.MTTF, c)
	if err != nil {
		return nil, err
	}
	// The stagger axis is a trace-source axis: the cluster with k equal
	// groups, group i shifted by i*period/k, is (by Poisson
	// superposition) a single component at rate C*lambda with the
	// equal-weighted union of the shifted traces. Each union is built
	// lazily by the sweep engine, at most once, and the k systems are
	// evaluated concurrently.
	sources := make([]soferr.TraceSource, len(staggers))
	cells := make([]soferr.Cell, len(staggers))
	for ki, k := range staggers {
		k := k
		sources[ki] = soferr.TraceSource{
			Name: fmt.Sprintf("stagger=%d", k),
			Build: func() (soferr.Trace, error) {
				shifted := make([]*trace.Piecewise, k)
				weights := make([]float64, k)
				for i := 0; i < k; i++ {
					s, err := trace.Shift(day, float64(i)*day.Period()/float64(k))
					if err != nil {
						return nil, err
					}
					shifted[i] = s
					weights[i] = 1
				}
				return trace.WeightedUnion(weights, shifted)
			},
		}
		cells[ki] = soferr.Cell{
			Source:      ki,
			RatePerYear: rateY * float64(c),
			Count:       1,
			Seed:        r.opt.Seed ^ (0xFA5E ^ uint64(k)),
		}
	}
	ests, err := r.sweepEstimates(ctx, "extphase", sources, cells,
		[]soferr.Method{soferr.MonteCarlo})
	if err != nil {
		return nil, err
	}
	for ki, k := range staggers {
		mcSys := ests[ki][0].MTTF
		t.AddRow(
			fmt.Sprintf("%d", k), fmt.Sprintf("%d", c), fmtSci(ns),
			fmtSeconds(sofrMTTF), fmtSeconds(mcSys),
			fmtPct((sofrMTTF-mcSys)/mcSys),
		)
	}
	t.Notes = append(t.Notes,
		"k=1 is the paper's in-phase worst case; staggering phases flattens system-level utilization and SOFR's error vanishes",
		"with k=2 the day workload's two half-day groups tile the whole day: system vulnerability is constant and SOFR becomes exact",
		"operationally: SOFR is trustworthy for diverse/staggered fleets, dangerous for synchronized ones")
	return t, nil
}

// ExtPhases contrasts SOFR error for a stationary benchmark (gzip)
// against a phased program with the same length but genuine
// macro-phase structure (phased-int: compiler-like gcc/mcf/gzip
// phases). The paper identifies "the longest repeated phase of the
// workload" as the third parameter governing AVF+SOFR validity
// (Section 1); phase structure lengthens the effective L without
// lengthening the trace, pulling the SOFR error onset to smaller
// NxS x C.
func (r *Runner) ExtPhases(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "extphases",
		Title: "Extension: SOFR error with and without workload macro-phases",
		Header: []string{
			"workload", "NxS", "C", "SOFR MTTF", "MC MTTF", "rel err",
		},
	}
	nsGrid := []float64{1e12, 1e13, 1e14}
	const c = 500000
	names := []string{"gzip", "phased-int"}
	if r.opt.Quick {
		nsGrid = []float64{1e14}
	}
	sources := make([]soferr.TraceSource, len(names))
	for i, name := range names {
		proc, err := r.benchmarkTrace(name, "")
		if err != nil {
			return nil, err
		}
		sources[i] = soferr.TraceSource{Name: name, Trace: proc}
	}
	cells, err := sofrCells(r.opt.Seed, len(names), nsGrid, []int{c},
		func(ns float64, _ int) uint64 { return uint64(ns) ^ 0xBEEF })
	if err != nil {
		return nil, err
	}
	ests, err := r.sweepEstimates(ctx, "extphases", sources, cells,
		[]soferr.Method{soferr.MonteCarlo})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, name := range names {
		for _, ns := range nsGrid {
			sofrMTTF, err := sofr.Identical(ests[i][0].MTTF, c)
			if err != nil {
				return nil, err
			}
			mcSys := ests[i+1][0].MTTF
			i += 2
			t.AddRow(
				name, fmtSci(ns), fmt.Sprintf("%d", c),
				fmtSeconds(sofrMTTF), fmtSeconds(mcSys),
				fmtPct((sofrMTTF-mcSys)/mcSys),
			)
		}
	}
	t.Notes = append(t.Notes,
		"both workloads have the same trace length; only the phased one has long-timescale utilization variation",
		"the phased program reaches a given SOFR error at smaller NxS, demonstrating that the paper's L parameter is the phase length, not the trace length")
	return t, nil
}
