package soferr

import (
	"context"
	"fmt"
	"runtime"

	"github.com/soferr/soferr/internal/sweep"
	"github.com/soferr/soferr/internal/trace"
)

// TraceSource is one point on a sweep's trace axis: a named workload.
// Exactly one of Trace (pre-materialized) and Build (lazy constructor)
// should be set. A lazy source is built at most once per sweep, and
// only if some cell references it, so expensive sources — simulated
// benchmarks, large unions — cost nothing unless actually swept.
type TraceSource struct {
	// Name labels the source in cells, results, and errors.
	Name string
	// Trace is the pre-materialized masking trace, if available.
	Trace Trace
	// Build constructs the trace on first use.
	Build func() (Trace, error)
}

// Cell is one evaluation point of a sweep: Count identical components,
// each with raw rate RatePerYear (errors/year) filtered by the
// referenced source's trace, estimated under the cell's Seed. See the
// internal sweep package for field semantics; most callers receive
// cells from Grid.Cells rather than building them by hand.
type Cell = sweep.Cell

// CellSeed derives the deterministic per-cell seed used by Grid.Cells:
// a SplitMix64 mix of (base seed, cell index). Exported so hand-built
// cell slices (SweepCells) can reproduce the grid derivation.
func CellSeed(base uint64, index int) uint64 { return sweep.CellSeed(base, index) }

// Grid is a design-space sweep specification: the cross product of a
// trace axis, a per-component raw-rate axis, a component-count axis,
// and an estimator-method axis — the shape of the paper's Section 5
// evaluation (Table 2 varies workload, N x S, and C the same way).
type Grid struct {
	// Name labels the grid in reports.
	Name string
	// Sources is the workload/trace axis (required).
	Sources []TraceSource
	// RatesPerYear is the per-component raw-rate axis in errors/year
	// (required). The paper's convention: rate = N x S x 1e-8/year.
	RatesPerYear []float64
	// Counts is the component-count axis C (optional; nil means {1}).
	// A cell with count C models C identical in-phase components in
	// series, which superpose exactly to one component at C x rate.
	Counts []int
	// Methods is the estimator axis (optional; nil means all three).
	// Every method of a cell runs against the same compiled System, so
	// the comparison is apples-to-apples per cell.
	Methods []Method
	// Seed is the base seed; each cell derives its own stream via
	// CellSeed(Seed, index), so estimates are bit-identical for any
	// worker count.
	Seed uint64
}

// Cells enumerates the grid's cells in row-major axis order (sources
// outermost, then rates, then counts) with per-cell seeds assigned.
func (g Grid) Cells() ([]Cell, error) {
	ig := sweep.Grid{
		Name:         g.Name,
		Sources:      toSweepSources(g.Sources),
		RatesPerYear: g.RatesPerYear,
		Counts:       g.Counts,
	}
	return ig.Cells(g.Seed)
}

// CellResult is the outcome of one sweep cell: the cell's coordinates
// plus one Estimate per requested method, in method order. Err is set
// (and Estimates nil) when the cell failed — a broken source, an
// uncompilable system, or a failed query.
type CellResult struct {
	Cell      Cell       `json:"cell"`
	Estimates []Estimate `json:"estimates,omitempty"`
	Err       error      `json:"-"`
}

// Sweep evaluates every cell of the grid and returns the results in
// cell order. It is the collecting form of SweepStream and fails fast:
// the first cell error (in cell order) cancels the remaining work and
// is returned.
//
// The engine compiles one System per unique (source, rate x count)
// product and shares it across cells — including across methods, which
// all run against the same compiled state — so a full grid is cheaper
// than per-cell NewSystem calls while remaining bit-identical to them.
// Options apply to every cell (the per-cell seeds override the Query's
// Seed; its Workers bounds the sweep's total parallelism).
func Sweep(ctx context.Context, g Grid, opts ...EstimateOption) ([]CellResult, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	return SweepCellsAll(ctx, g.Sources, cells, g.Methods, nil, opts...)
}

// SweepCellsAll is the collecting form of SweepCells: it evaluates an
// explicit cell slice and returns the results in cell order, failing
// fast on the first cell error (in cell order). onResult, when
// non-nil, observes each successful result as it completes — progress
// reporting for long sweeps; it is called from the collecting
// goroutine, in cell order.
func SweepCellsAll(ctx context.Context, sources []TraceSource, cells []Cell, methods []Method, onResult func(CellResult), opts ...EstimateOption) ([]CellResult, error) {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := SweepCells(ctx, sources, cells, methods, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]CellResult, 0, len(cells))
	var firstErr error
	for res := range ch {
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
			cancel() // fail fast; keep draining so the pool shuts down
			continue
		}
		if firstErr == nil {
			out = append(out, res)
			if onResult != nil {
				onResult(res)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// The stream closes early (without per-cell errors) only when the
	// caller's context was cancelled.
	if len(out) != len(cells) {
		if err := parent.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("soferr: sweep delivered %d of %d cells", len(out), len(cells))
	}
	return out, nil
}

// SweepStream is Sweep without collection: it returns a channel that
// delivers exactly one CellResult per cell, in cell order, then closes.
// Per-cell errors are delivered on the channel rather than stopping the
// sweep. Consumers must either drain the channel or cancel ctx.
func SweepStream(ctx context.Context, g Grid, opts ...EstimateOption) (<-chan CellResult, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	return SweepCells(ctx, g.Sources, cells, g.Methods, opts...)
}

// SweepCells is the sweep engine's explicit-cell entry point: it
// evaluates an arbitrary cell slice (not necessarily a cross product —
// duplicate coordinates with distinct seeds are legal) against the
// given sources and methods, streaming results in cell order. Grid
// sweeps and the experiment harness both run on this path.
//
// Each cell's Index is normalized to its slice position. nil methods
// means all three. Deduplication, determinism, and channel semantics
// are as documented on Sweep and SweepStream.
func SweepCells(ctx context.Context, sources []TraceSource, cells []Cell, methods []Method, opts ...EstimateOption) (<-chan CellResult, error) {
	if len(methods) == 0 {
		methods = Methods()
	}
	// Query.Workers bounds the sweep's total parallelism: the pool runs
	// up to that many cells at once, and any cores left over (small
	// grids on wide machines) go to each cell's Monte-Carlo query.
	total := applyOptions(opts).Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	pool := total
	if pool > len(cells) {
		pool = len(cells)
	}
	if pool < 1 {
		pool = 1
	}
	innerWorkers := total / pool
	if innerWorkers < 1 {
		innerWorkers = 1
	}

	baseOpts := append([]EstimateOption(nil), opts...)
	ch, err := sweep.Run(ctx, toSweepSources(sources), cells, sweep.Options{Workers: pool},
		func(name string, tr trace.Trace, effRatePerYear float64) (*System, error) {
			return NewSystem([]Component{{Name: name, RatePerYear: effRatePerYear, Trace: tr}}, WithName(name))
		},
		func(ctx context.Context, sys *System, c Cell) ([]Estimate, error) {
			cellOpts := append(append([]EstimateOption(nil), baseOpts...),
				WithSeed(c.Seed), WithWorkers(innerWorkers))
			return sys.CompareWith(ctx, cellOpts, methods...)
		})
	if err != nil {
		return nil, err
	}
	out := make(chan CellResult)
	go func() {
		defer close(out)
		for r := range ch {
			select {
			case out <- CellResult{Cell: r.Cell, Estimates: r.Value, Err: r.Err}:
			case <-ctx.Done():
				for range ch {
				}
				return
			}
		}
	}()
	return out, nil
}

// toSweepSources adapts the public sources to the engine's. The public
// Trace interface and the internal trace.Trace have one method set
// (asserted beside Trace), so values convert implicitly; only the Build
// signature needs a wrapper.
func toSweepSources(sources []TraceSource) []sweep.Source {
	out := make([]sweep.Source, len(sources))
	for i, s := range sources {
		out[i] = sweep.Source{Name: s.Name, Trace: s.Trace}
		if s.Build != nil {
			build := s.Build
			out[i].Build = func() (trace.Trace, error) { return build() }
		}
	}
	return out
}

// BusyIdleSourceSpecs returns one declarative SourceSpec per duty
// cycle: a busy/idle loop of the given period, vulnerable for
// duty x period seconds of each iteration, named "duty=<d>". It is the
// single definition of the duty-cycle axis (the paper's utilization
// dimension: the day schedule is duty 0.5 over 24 hours, the week
// schedule duty 5/7 over a week); BusyIdleSources and the CLI both
// build on it.
func BusyIdleSourceSpecs(period float64, dutyCycles []float64) ([]SourceSpec, error) {
	out := make([]SourceSpec, len(dutyCycles))
	for i, d := range dutyCycles {
		if d < 0 || d > 1 {
			return nil, fmt.Errorf("soferr: duty cycle %v outside [0, 1]", d)
		}
		out[i] = SourceSpec{
			Name:  fmt.Sprintf("duty=%g", d),
			Trace: TraceSpec{Kind: TraceKindBusyIdle, PeriodSeconds: period, BusySeconds: d * period},
		}
	}
	return out, nil
}

// BusyIdleSources is BusyIdleSourceSpecs with the traces materialized
// eagerly: one TraceSource per duty cycle, ready for a Grid.
func BusyIdleSources(period float64, dutyCycles []float64) ([]TraceSource, error) {
	specs, err := BusyIdleSourceSpecs(period, dutyCycles)
	if err != nil {
		return nil, err
	}
	var c Compiler
	out := make([]TraceSource, len(specs))
	for i, sp := range specs {
		tr, err := c.BuildTrace(sp.Trace)
		if err != nil {
			return nil, err
		}
		out[i] = TraceSource{Name: sp.Name, Trace: tr}
	}
	return out, nil
}
