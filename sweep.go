package soferr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Sentinel errors of the sweep engine; callers branch with errors.Is.
var (
	errNoSources = errors.New("sweep: grid has no sources")
	errNoRates   = errors.New("sweep: grid has no rates")
	errNoCells   = errors.New("sweep: no cells")
	// errCellPanic tags a cell whose source build, compile or query
	// panicked. The panic is contained to that cell and delivered as
	// its error; the sweep (and the process) continues with the
	// remaining cells.
	errCellPanic = errors.New("sweep: cell evaluation panicked")
)

// TraceSource is one point on a sweep's trace axis: a named workload.
// Exactly one of Trace (pre-materialized) and Build (lazy constructor)
// should be set; Trace wins when both are. A lazy source is built at
// most once per sweep, and only if some cell references it, so
// expensive sources — simulated benchmarks, large unions — cost nothing
// unless actually swept.
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
// referenced source's trace, estimated under the cell's Seed. Most
// callers receive cells from Grid.Cells rather than building them by
// hand.
type Cell struct {
	// Index is the cell's position in the swept cell slice. SweepCells
	// normalizes it to the slice position, so results (which may be
	// consumed out of a channel) can always be mapped back.
	Index int `json:"index"`
	// Source indexes the sweep's source slice; SourceName echoes that
	// source's name (SweepCells fills it in).
	Source     int    `json:"source"`
	SourceName string `json:"source_name,omitempty"`
	// RateIndex and CountIndex locate the cell on the grid's rate and
	// count axes. Grid.Cells always sets them; they exist so
	// seed-derivation overrides can recover the original axis values
	// without inverting floating-point arithmetic. Hand-built cell
	// slices choose their own convention (the engine never reads them),
	// so a zero only means "axis position 0" for cells that set them.
	RateIndex  int `json:"rate_index"`
	CountIndex int `json:"count_index"`
	// RatePerYear is the per-component raw (pre-masking) soft error
	// rate in errors/year.
	RatePerYear float64 `json:"rate_per_year"`
	// Count is the number of identical components in series.
	Count int `json:"count"`
	// Seed selects the cell's deterministic random stream for
	// stochastic estimators.
	Seed uint64 `json:"seed"`
}

// EffectiveRatePerYear is the superposed raw rate of the cell's series
// system: Count identical components at RatePerYear each are exactly
// one component at Count x RatePerYear for every estimator in this
// repository, which is what lets cells share compiled systems.
func (c Cell) EffectiveRatePerYear() float64 {
	return c.RatePerYear * float64(c.Count)
}

// CellSeed derives the deterministic seed of cell index under a base
// seed, as Grid.Cells assigns it: a SplitMix64 finalizer over a Weyl
// sequence, so adjacent indices (and small base seeds) still produce
// well-mixed, distinct streams. The derivation is part of the
// determinism contract — a grid re-run with the same base seed
// evaluates identical streams no matter how the cells are scheduled —
// and is exported so hand-built cell slices (SweepCells) can reproduce
// it.
func CellSeed(base uint64, index int) uint64 {
	x := base + (uint64(index)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

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
// outermost, then rates, then counts) with per-cell seeds assigned. It
// first checks the axes: at least one source, each with a Trace or a
// Build; at least one rate, each finite and non-negative; and no count
// below 1.
func (g Grid) Cells() ([]Cell, error) {
	if len(g.Sources) == 0 {
		return nil, errNoSources
	}
	for i, s := range g.Sources {
		if s.Trace == nil && s.Build == nil {
			return nil, fmt.Errorf("sweep: source %d (%s) has neither Trace nor Build", i, s.Name)
		}
	}
	if len(g.RatesPerYear) == 0 {
		return nil, errNoRates
	}
	for i, r := range g.RatesPerYear {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("sweep: rate %d is invalid (%v)", i, r)
		}
	}
	counts := g.Counts
	if len(counts) == 0 {
		counts = []int{1}
	}
	for i, c := range counts {
		if c < 1 {
			return nil, fmt.Errorf("sweep: count %d is invalid (%d)", i, c)
		}
	}
	cells := make([]Cell, 0, len(g.Sources)*len(g.RatesPerYear)*len(counts))
	for si, s := range g.Sources {
		for ri, rate := range g.RatesPerYear {
			for ci, count := range counts {
				i := len(cells)
				cells = append(cells, Cell{
					Index:       i,
					Source:      si,
					SourceName:  s.Name,
					RateIndex:   ri,
					CountIndex:  ci,
					RatePerYear: rate,
					Count:       count,
					Seed:        CellSeed(g.Seed, i),
				})
			}
		}
	}
	return cells, nil
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
// cell order. It is the collecting form of SweepCells over Grid.Cells
// and fails fast: the first cell error (in cell order) cancels the
// remaining work and is returned.
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

// SweepCells is the sweep engine: it evaluates an arbitrary cell slice
// (not necessarily a cross product — duplicate coordinates with
// distinct seeds are legal) against the given sources and methods on a
// bounded worker pool, and returns a channel that delivers exactly one
// CellResult per cell, in cell order, then closes. Grid sweeps, the
// experiment harness, the CLI and the server all run on this path.
//
// The cell slice is copied, and each cell's Index and SourceName are
// normalized to its slice position and source before evaluation. nil
// methods means all three. Each source's trace is resolved at most
// once (a lazy Build included), and one System is compiled per unique
// (source, Count x RatePerYear) product and shared by every cell and
// method that reaches it; per-cell seeds make the results
// bit-identical for any worker count.
//
// Errors are per cell: a failing or panicking cell does not stop its
// siblings. Cancelling ctx stops new cells from starting and makes
// delivery best-effort — the channel closes promptly once the
// in-flight cells drain, possibly without emitting results that had
// already completed — so consumers must either drain the channel or
// cancel ctx, and should treat an early close as the context's error.
func SweepCells(ctx context.Context, sources []TraceSource, cells []Cell, methods []Method, opts ...EstimateOption) (<-chan CellResult, error) {
	if len(cells) == 0 {
		return nil, errNoCells
	}
	work := make([]Cell, len(cells))
	copy(work, cells)
	for i := range work {
		c := &work[i]
		c.Index = i
		if c.Source < 0 || c.Source >= len(sources) {
			return nil, fmt.Errorf("sweep: cell %d references source %d of %d", i, c.Source, len(sources))
		}
		c.SourceName = sources[c.Source].Name
		if c.Count < 1 {
			return nil, fmt.Errorf("sweep: cell %d has invalid count %d", i, c.Count)
		}
		if c.RatePerYear < 0 || math.IsNaN(c.RatePerYear) || math.IsInf(c.RatePerYear, 0) {
			return nil, fmt.Errorf("sweep: cell %d has invalid rate %v", i, c.RatePerYear)
		}
	}
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
	pool := min(total, len(work))
	// Every cell runs with the caller's options, then the cores the
	// pool leaves over, then its own seed (sweepCell adds it).
	opts = append(slices.Clone(opts), WithWorkers(total/pool))

	// A panicking Build or NewSystem panics again in every cell that
	// shares it (sync.OnceValues), and each cell's recover reports it.
	traces := make([]func() (Trace, error), len(sources))
	for i, s := range sources {
		traces[i] = sync.OnceValues(func() (Trace, error) {
			if s.Trace != nil {
				return s.Trace, nil
			}
			if s.Build == nil {
				return nil, fmt.Errorf("sweep: source %d (%s) has neither Trace nor Build", i, s.Name)
			}
			tr, err := s.Build()
			if err != nil {
				return nil, fmt.Errorf("sweep: source %s: %w", s.Name, err)
			}
			if tr == nil {
				return nil, fmt.Errorf("sweep: source %s built a nil trace", s.Name)
			}
			return tr, nil
		})
	}
	// The keys are enumerated up front, so the map is read-only while
	// the workers run.
	type sysKey struct {
		source int
		eff    float64
	}
	systems := make(map[sysKey]func() (*System, error))
	for _, c := range work {
		k := sysKey{c.Source, c.EffectiveRatePerYear()}
		if systems[k] == nil {
			systems[k] = sync.OnceValues(func() (*System, error) {
				tr, err := traces[k.source]()
				if err != nil {
					return nil, err
				}
				name := sources[k.source].Name
				return NewSystem([]Component{{Name: name, RatePerYear: k.eff, Trace: tr}}, WithName(name))
			})
		}
	}

	// One slot per worker: a cell finished ahead of the emitter's next
	// index does not hold its worker back from claiming another.
	done := make(chan CellResult, pool)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range pool {
		wg.Add(1)
		//soferr:allow gocontain the containment boundary is deliberately per cell (sweepCell's recover), so a panicking cell reports errCellPanic and the worker keeps claiming; outside that boundary only the atomic claim, a slice index, a map read, and a send on a channel we own remain
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(work) {
					return
				}
				c := work[i]
				// Claimed cells always report, so the in-order emitter
				// never waits on a gap.
				done <- sweepCell(ctx, c, systems[sysKey{c.Source, c.EffectiveRatePerYear()}], methods, opts)
			}
		}()
	}
	//soferr:allow gocontain wg.Wait-then-close pair; neither call can panic (the counter never goes negative and done is closed exactly once, here), and a recover would be dead code
	go func() {
		wg.Wait()
		close(done)
	}()

	// Reorder completed cells into cell order. Workers claim indices
	// monotonically and every claimed cell reports, so the completed
	// set is always a prefix plus a bounded in-flight window.
	out := make(chan CellResult)
	//soferr:allow gocontain the reorder loop touches only channels and a map it owns (out is closed solely by its own defer), so nothing here can panic, and a recover could not restore the in-order emission invariant — a loud crash in tests beats silently dropped cells
	go func() {
		defer close(out)
		pending := make(map[int]CellResult, pool)
		nextEmit := 0
		for r := range done {
			pending[r.Cell.Index] = r
			for {
				e, ok := pending[nextEmit]
				if !ok {
					break
				}
				delete(pending, nextEmit)
				select {
				case out <- e:
					nextEmit++
				case <-ctx.Done():
					// Consumer gave up: drain the workers and exit
					// without blocking on an abandoned channel.
					for range done {
					}
					return
				}
			}
		}
	}()
	return out, nil
}

// sweepCell evaluates one cell against its shared System. A panic
// anywhere below it — the source's Build, NewSystem, or a query — is
// contained here and becomes the cell's errCellPanic error.
func sweepCell(ctx context.Context, c Cell, system func() (*System, error), methods []Method, opts []EstimateOption) (res CellResult) {
	res.Cell = c
	defer func() {
		if rec := recover(); rec != nil {
			res.Err = fmt.Errorf("sweep: cell %d (%s): %w: %v\n%s",
				c.Index, c.SourceName, errCellPanic, rec, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	sys, err := system()
	if err == nil {
		res.Estimates, err = sys.CompareWith(ctx, append(slices.Clone(opts), WithSeed(c.Seed)), methods...)
	}
	if err != nil {
		res.Err = fmt.Errorf("sweep: cell %d (%s): %w", c.Index, c.SourceName, err)
	}
	return res
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
