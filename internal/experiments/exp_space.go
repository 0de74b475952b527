package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/design"
	"github.com/soferr/soferr/internal/sofr"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
)

// The Section 5 design-space experiments all have the same shape — a
// grid of (workload, raw rate, component count) points, each estimated
// by one or more methods — so they run on the public sweep engine
// (soferr.SweepCells): cells are built explicitly (the historical
// per-point seed salts predate the engine's index-derived seeds and
// are preserved so recorded tables stay bit-identical), evaluated
// concurrently with shared compiled state, and assembled into rows in
// the original nesting order.

// pointSystem compiles a single (possibly superposed) design-space
// component into a queryable System.
func (r *Runner) pointSystem(ratePerYear float64, tr trace.Trace) (*soferr.System, error) {
	return soferr.NewSystem([]soferr.Component{{Name: "point", RatePerYear: ratePerYear, Trace: tr}})
}

// mcOpts are the Monte-Carlo settings shared by every design-space
// query, salted so distinct points get distinct streams.
func (r *Runner) mcOpts(seedSalt uint64) []soferr.EstimateOption {
	return []soferr.EstimateOption{
		soferr.WithTrials(r.opt.Trials),
		soferr.WithSeed(r.opt.Seed ^ seedSalt),
		soferr.WithEngine(r.opt.Engine),
	}
}

// mcMTTF runs the Monte-Carlo estimator for a single (possibly
// superposed) component through the public System API.
func (r *Runner) mcMTTF(ctx context.Context, ratePerYear float64, tr trace.Trace, seedSalt uint64) (soferr.Estimate, error) {
	sys, err := r.pointSystem(ratePerYear, tr)
	if err != nil {
		return soferr.Estimate{}, err
	}
	return sys.MTTF(ctx, soferr.MonteCarlo, r.mcOpts(seedSalt)...)
}

// sweepEstimates evaluates explicit cells through the sweep engine with
// the runner's settings, returning one estimate slice per cell (indexed
// by cell position, parallel to methods). The engine shares compiled
// systems across cells with equal (source, rate x count) products and
// is deterministic for any worker count, so the results are
// bit-identical to sequential per-point System queries.
func (r *Runner) sweepEstimates(ctx context.Context, label string, sources []soferr.TraceSource, cells []soferr.Cell, methods []soferr.Method) ([][]soferr.Estimate, error) {
	res, err := soferr.SweepCellsAll(ctx, sources, cells, methods,
		func(cr soferr.CellResult) {
			r.logf("%s: %s rate/yr=%g C=%d done (%d/%d)",
				label, cr.Cell.SourceName, cr.Cell.RatePerYear, cr.Cell.Count,
				cr.Cell.Index+1, len(cells))
		},
		soferr.WithTrials(r.opt.Trials), soferr.WithEngine(r.opt.Engine))
	if err != nil {
		return nil, err
	}
	out := make([][]soferr.Estimate, len(cells))
	for _, cr := range res {
		out[cr.Cell.Index] = cr.Estimates
	}
	return out, nil
}

// Fig5 reproduces Figure 5: the error of the AVF step relative to Monte
// Carlo for the synthesized workloads (day, week, combined) at
// representative values of N x S, for a single component (C = 1).
func (r *Runner) Fig5(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "fig5",
		Title: "AVF-step error vs Monte Carlo, synthesized workloads, C=1 (Figure 5)",
		Header: []string{
			"workload", "NxS", "rate/yr", "AVF",
			"MC MTTF", "AVF MTTF", "rel err", "exact err",
		},
	}
	grid := []float64{1e8, 1e9, 1e10, 1e11, 1e12}
	if r.opt.Quick {
		grid = []float64{1e9, 1e11}
	}
	workloads := []design.Workload{design.WorkloadDay, design.WorkloadWeek, design.WorkloadCombined}
	sources := make([]soferr.TraceSource, len(workloads))
	for i, w := range workloads {
		tr, err := r.workloadTrace(w)
		if err != nil {
			return nil, err
		}
		sources[i] = soferr.TraceSource{Name: w.String(), Trace: tr}
	}
	var cells []soferr.Cell
	for wi := range workloads {
		for ni, ns := range grid {
			cells = append(cells, soferr.Cell{
				Source: wi, RateIndex: ni,
				RatePerYear: design.RatePerYear(ns, 1), Count: 1,
				Seed: r.opt.Seed ^ uint64(ns),
			})
		}
	}
	ests, err := r.sweepEstimates(ctx, "fig5", sources, cells,
		[]soferr.Method{soferr.MonteCarlo, soferr.SoftArch})
	if err != nil {
		return nil, err
	}
	i := 0
	for wi, w := range workloads {
		avfVal := sources[wi].Trace.AVF()
		for _, ns := range grid {
			rate := design.RatePerSecond(ns, 1)
			mc, exact := ests[i][0], ests[i][1].MTTF
			i++
			avfMTTF := 1 / (rate * avfVal)
			t.AddRow(
				w.String(), fmtSci(ns), fmtSci(units.PerSecondToPerYear(rate)),
				fmt.Sprintf("%.3f", avfVal),
				fmtSeconds(mc.MTTF), fmtSeconds(avfMTTF),
				fmtPct((avfMTTF-mc.MTTF)/mc.MTTF),
				fmtPct((avfMTTF-exact)/exact),
			)
		}
	}
	t.Notes = append(t.Notes,
		"paper: SPEC workloads show <0.5% error everywhere; synthesized workloads show significant error once NxS is large (paper: >=1e9), up to ~90%",
		"the error saturates at (1/AVF - 1): +100% for day, +40% for week",
		"'exact err' replaces the MC reference with the closed-form survival integral (no sampling noise)")
	return t, nil
}

// Fig6a reproduces Figure 6(a): SOFR error vs Monte Carlo for clusters
// of C processors running SPEC benchmarks, at representative N x S.
func (r *Runner) Fig6a(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "fig6a",
		Title: "SOFR-step error vs Monte Carlo, SPEC workloads (Figure 6a)",
		Header: []string{
			"benchmark", "NxS", "C", "SOFR MTTF", "MC MTTF", "rel err",
		},
	}
	benchmarks := []string{"gzip", "swim", "mcf"}
	nsGrid := []float64{1e9, 2e12, 1e14, 1e15}
	cGrid := design.ComponentCounts
	if r.opt.Quick {
		benchmarks = []string{"gzip"}
		nsGrid = []float64{1e9, 1e15}
		cGrid = []int{8, 500000}
	}
	sources := make([]soferr.TraceSource, len(benchmarks))
	for i, b := range benchmarks {
		proc, err := r.benchmarkTrace(b, "")
		if err != nil {
			return nil, err
		}
		sources[i] = soferr.TraceSource{Name: b, Trace: proc}
	}
	cells, err := sofrCells(r.opt.Seed, len(benchmarks), nsGrid, cGrid,
		func(ns float64, c int) uint64 { return uint64(ns) + uint64(c) })
	if err != nil {
		return nil, err
	}
	ests, err := r.sweepEstimates(ctx, "fig6a", sources, cells,
		[]soferr.Method{soferr.MonteCarlo})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, b := range benchmarks {
		for _, ns := range nsGrid {
			for _, c := range cGrid {
				sofrMTTF, err := sofr.Identical(ests[i][0].MTTF, c)
				if err != nil {
					return nil, err
				}
				mcSys := ests[i+1][0].MTTF
				i += 2
				t.AddRow(
					b, fmtSci(ns), fmt.Sprintf("%d", c),
					fmtSeconds(sofrMTTF), fmtSeconds(mcSys),
					fmtPct((sofrMTTF-mcSys)/mcSys),
				)
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: accurate for C=2 or 8 at all NxS; significant error only for C>=5000 with very large NxS (>=2e12 at 1e9 bits)",
		"our benchmark loop is ~1e5x shorter than the paper's 100M-instruction traces, so error onset shifts to proportionally larger NxS x C; the shape (error grows with C and NxS, negligible at small C) is preserved")
	return t, nil
}

// sofrCells enumerates the cell pairs behind one SOFR design point per
// (source, N x S, C) grid coordinate: the component cell (count 1, per
// Section 4.2 the SOFR input) followed by the superposed system cell
// (count C). Seeds reproduce the harness's historical salts — the
// component stream is Seed ^ salt(ns, c) and the system stream
// Seed ^ (salt(ns, c) ^ 0xC0FFEE), exactly as the pre-engine sequential
// code drew them — so the recorded tables are unchanged.
func sofrCells(seed uint64, numSources int, nsGrid []float64, cGrid []int, salt func(ns float64, c int) uint64) ([]soferr.Cell, error) {
	var cells []soferr.Cell
	for si := 0; si < numSources; si++ {
		for ni, ns := range nsGrid {
			rate := design.RatePerYear(ns, 1)
			for ci, c := range cGrid {
				s := salt(ns, c)
				cells = append(cells,
					soferr.Cell{
						Source: si, RateIndex: ni, CountIndex: ci,
						RatePerYear: rate, Count: 1,
						Seed: seed ^ s,
					},
					soferr.Cell{
						Source: si, RateIndex: ni, CountIndex: ci,
						RatePerYear: rate, Count: c,
						Seed: seed ^ (s ^ 0xC0FFEE),
					})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: empty SOFR grid")
	}
	return cells, nil
}

// Fig6b reproduces Figure 6(b): SOFR error vs Monte Carlo for clusters
// running the synthesized workloads.
func (r *Runner) Fig6b(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "fig6b",
		Title: "SOFR-step error vs Monte Carlo, synthesized workloads (Figure 6b)",
		Header: []string{
			"workload", "NxS", "C", "SOFR MTTF", "MC MTTF", "rel err",
		},
	}
	nsGrid := []float64{1e5, 1e6, 1e7, 1e8}
	cGrid := design.ComponentCounts
	workloads := []design.Workload{design.WorkloadDay, design.WorkloadWeek, design.WorkloadCombined}
	if r.opt.Quick {
		nsGrid = []float64{1e6, 1e8}
		cGrid = []int{8, 50000}
		workloads = []design.Workload{design.WorkloadDay, design.WorkloadWeek}
	}
	sources := make([]soferr.TraceSource, len(workloads))
	for i, w := range workloads {
		tr, err := r.workloadTrace(w)
		if err != nil {
			return nil, err
		}
		sources[i] = soferr.TraceSource{Name: w.String(), Trace: tr}
	}
	cells, err := sofrCells(r.opt.Seed, len(workloads), nsGrid, cGrid,
		func(ns float64, c int) uint64 { return uint64(ns) + uint64(c)*3 })
	if err != nil {
		return nil, err
	}
	ests, err := r.sweepEstimates(ctx, "fig6b", sources, cells,
		[]soferr.Method{soferr.MonteCarlo})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, w := range workloads {
		for _, ns := range nsGrid {
			for _, c := range cGrid {
				sofrMTTF, err := sofr.Identical(ests[i][0].MTTF, c)
				if err != nil {
					return nil, err
				}
				mcSys := ests[i+1][0].MTTF
				i += 2
				t.AddRow(
					w.String(), fmtSci(ns), fmt.Sprintf("%d", c),
					fmtSeconds(sofrMTTF), fmtSeconds(mcSys),
					fmtPct((sofrMTTF-mcSys)/mcSys),
				)
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: day at NxS=1e8 shows 11% (C=5000) and 50% (C=50000); week shows 32%/80%; combined smaller but significant",
		"first-principles saturation is +100% (day), +40% (week): error rises along a sigmoid in C x NxS and our grid includes both the onset and the saturated regime",
		"week reaches large errors at ~10x smaller C x NxS than day (its busy window is 10x longer), matching the paper's week > day ordering at fixed parameters")
	return t, nil
}

// Sec54 reproduces Section 5.4: SoftArch (first-principles survival
// model) vs Monte Carlo across the design space, comparing both methods
// on one compiled System per point. The paper reports <1% discrepancy
// for single components and <2% for full systems.
func (r *Runner) Sec54(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "sec54",
		Title:  "SoftArch vs Monte Carlo across the design space (Section 5.4)",
		Header: []string{"point", "SoftArch MTTF", "MC MTTF", "rel err", "MC rel stderr"},
	}
	type point struct {
		name string
		w    design.Workload
		ns   float64
		c    int
	}
	points := []point{
		{"day C=1 NxS=1e7", design.WorkloadDay, 1e7, 1},
		{"day C=1 NxS=1e11", design.WorkloadDay, 1e11, 1},
		{"week C=1 NxS=1e9", design.WorkloadWeek, 1e9, 1},
		{"combined C=1 NxS=1e9", design.WorkloadCombined, 1e9, 1},
		{"SPEC int C=1 NxS=1e14", design.WorkloadSPECInt, 1e14, 1},
		{"SPEC fp C=1 NxS=1e14", design.WorkloadSPECFP, 1e14, 1},
		{"day C=5000 NxS=1e8", design.WorkloadDay, 1e8, 5000},
		{"week C=50000 NxS=1e8", design.WorkloadWeek, 1e8, 50000},
		{"SPEC int C=500000 NxS=2e12", design.WorkloadSPECInt, 2e12, 500000},
	}
	if r.opt.Quick {
		points = points[:4]
	}
	var sources []soferr.TraceSource
	srcIdx := make(map[design.Workload]int)
	cells := make([]soferr.Cell, len(points))
	for i, p := range points {
		si, ok := srcIdx[p.w]
		if !ok {
			tr, err := r.workloadTrace(p.w)
			if err != nil {
				return nil, err
			}
			si = len(sources)
			sources = append(sources, soferr.TraceSource{Name: p.w.String(), Trace: tr})
			srcIdx[p.w] = si
		}
		// The superposed point rate C x N x S x baseline is folded into
		// RatePerYear (count 1) exactly as the sequential code built its
		// pointSystem, so the product stays bit-identical.
		cells[i] = soferr.Cell{
			Source:      si,
			RatePerYear: design.RatePerYear(p.ns, 1) * float64(p.c),
			Count:       1,
			Seed:        r.opt.Seed ^ (uint64(p.ns) ^ uint64(p.c)),
		}
	}
	ests, err := r.sweepEstimates(ctx, "sec54", sources, cells,
		[]soferr.Method{soferr.SoftArch, soferr.MonteCarlo})
	if err != nil {
		return nil, err
	}
	worstSingle, worstSystem := 0.0, 0.0
	for i, p := range points {
		exact, mc := ests[i][0], ests[i][1]
		rel := (exact.MTTF - mc.MTTF) / mc.MTTF
		if p.c == 1 {
			worstSingle = math.Max(worstSingle, math.Abs(rel))
		} else {
			worstSystem = math.Max(worstSystem, math.Abs(rel))
		}
		t.AddRow(p.name, fmtSeconds(exact.MTTF), fmtSeconds(mc.MTTF), fmtPct(rel),
			fmt.Sprintf("%.2f%%", 100*mc.RelStdErr()))
		t.AddEstimates(p.name, ests[i]...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("worst single-component |err| = %.2f%% (paper: <1%%), worst system |err| = %.2f%% (paper: <2%%)",
			100*worstSingle, 100*worstSystem),
		"discrepancies are Monte-Carlo sampling noise: SoftArch computes the same first-principles quantity in closed form")
	return t, nil
}
