package soferr_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/soferr/soferr"
)

func sweepTestGrid(t *testing.T) soferr.Grid {
	t.Helper()
	sources, err := soferr.BusyIdleSources(86400, []float64{0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return soferr.Grid{
		Name:         "test",
		Sources:      sources,
		RatesPerYear: []float64{10, 1e4, 2e4},
		Counts:       []int{1, 2},
		Seed:         1,
	}
}

func sweepOpts(extra ...soferr.EstimateOption) []soferr.EstimateOption {
	return append([]soferr.EstimateOption{
		soferr.WithTrials(2000),
		soferr.WithEngine(soferr.Fused),
	}, extra...)
}

// TestSweepDeterministicAcrossWorkerCounts is the acceptance check:
// fixed seed, any worker count, bit-identical estimates.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	g := sweepTestGrid(t)
	ctx := context.Background()
	one, err := soferr.Sweep(ctx, g, sweepOpts(soferr.WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	many, err := soferr.Sweep(ctx, g, sweepOpts(soferr.WithWorkers(13))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(many) || len(one) != 12 {
		t.Fatalf("result lengths %d vs %d, want 12", len(one), len(many))
	}
	for i := range one {
		if one[i].Cell != many[i].Cell {
			t.Errorf("cell %d differs: %+v vs %+v", i, one[i].Cell, many[i].Cell)
		}
		if len(one[i].Estimates) != 3 {
			t.Fatalf("cell %d has %d estimates, want 3 (all methods)", i, len(one[i].Estimates))
		}
		for m := range one[i].Estimates {
			a, b := one[i].Estimates[m], many[i].Estimates[m]
			if a != b {
				t.Errorf("cell %d method %v: %+v vs %+v", i, a.Method, a, b)
			}
		}
	}
}

// TestSweepMatchesFlatSystemQueries pins the engine's transparency: a
// sweep is bit-identical to hand-rolling NewSystem + CompareWith per
// cell, so the shared-compilation dedup is purely an optimization.
func TestSweepMatchesFlatSystemQueries(t *testing.T) {
	g := sweepTestGrid(t)
	ctx := context.Background()
	res, err := soferr.Sweep(ctx, g, sweepOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		sys, err := soferr.NewSystem([]soferr.Component{{
			Name:        c.SourceName,
			RatePerYear: c.RatePerYear * float64(c.Count),
			Trace:       g.Sources[c.Source].Trace,
		}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.CompareWith(ctx, sweepOpts(soferr.WithSeed(c.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		got := res[i].Estimates
		if len(got) != len(want) {
			t.Fatalf("cell %d: %d estimates vs %d", i, len(got), len(want))
		}
		for m := range want {
			// Cached is the one field the engine may legitimately set
			// differently (cells sharing a system may hit its cache).
			a, b := got[m], want[m]
			a.Cached, b.Cached = false, false
			if a != b {
				t.Errorf("cell %d method %v: sweep %+v != flat %+v", i, a.Method, a, b)
			}
		}
	}
}

func TestSweepCellsOrderAndMethodsSubset(t *testing.T) {
	g := sweepTestGrid(t)
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := soferr.SweepCells(context.Background(), g.Sources, cells,
		[]soferr.Method{soferr.SoftArch, soferr.AVFSOFR}, sweepOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for res := range ch {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Cell.Index != i {
			t.Errorf("result %d carries index %d", i, res.Cell.Index)
		}
		if len(res.Estimates) != 2 ||
			res.Estimates[0].Method != soferr.SoftArch ||
			res.Estimates[1].Method != soferr.AVFSOFR {
			t.Errorf("cell %d estimates not in method order: %+v", i, res.Estimates)
		}
		i++
	}
	if i != 12 {
		t.Errorf("streamed %d results, want 12", i)
	}
}

func TestSweepLazySourceBuiltOnce(t *testing.T) {
	tr, err := soferr.BusyIdleTrace(86400, 43200)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	g := soferr.Grid{
		Sources: []soferr.TraceSource{{
			Name: "lazy",
			Build: func() (soferr.Trace, error) {
				builds.Add(1)
				return tr, nil
			},
		}},
		RatesPerYear: []float64{10, 100, 1000},
		Methods:      []soferr.Method{soferr.AVFSOFR},
	}
	if _, err := soferr.Sweep(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("Build ran %d times, want 1", got)
	}
}

func TestSweepFailFast(t *testing.T) {
	boom := errors.New("no such workload")
	g := soferr.Grid{
		Sources: []soferr.TraceSource{{
			Name:  "broken",
			Build: func() (soferr.Trace, error) { return nil, boom },
		}},
		RatesPerYear: []float64{10},
	}
	_, err := soferr.Sweep(context.Background(), g)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the source", err)
	}
}

func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := soferr.Sweep(ctx, sweepTestGrid(t), sweepOpts()...)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestBusyIdleSources(t *testing.T) {
	srcs, err := soferr.BusyIdleSources(100, []float64{0, 0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 0.25, 1} {
		if got := srcs[i].Trace.AVF(); got != want {
			t.Errorf("source %d AVF = %v, want %v", i, got, want)
		}
	}
	if srcs[1].Name != "duty=0.25" {
		t.Errorf("source name %q", srcs[1].Name)
	}
	if _, err := soferr.BusyIdleSources(100, []float64{1.5}); err == nil {
		t.Error("accepted duty cycle > 1")
	}
}

// TestSweepExactEngine: under WithEngine(Exact) every tabulatable cell
// is answered in closed form — zero stderr, zero trials, and equal to
// Derivation 1 for the busy/idle grid — with Engine = Exact recorded on
// the estimate.
func TestSweepExactEngine(t *testing.T) {
	g := sweepTestGrid(t)
	g.Methods = []soferr.Method{soferr.MonteCarlo}
	res, err := soferr.Sweep(context.Background(), g, soferr.WithEngine(soferr.Exact))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	duties := []float64{0.5, 0.1}
	for i, r := range res {
		est := r.Estimates[0]
		if est.Engine != soferr.Exact || est.StdErr != 0 || est.Trials != 0 || est.Seed != 0 {
			t.Fatalf("cell %d estimate is not deterministic-exact: %+v", i, est)
		}
		c := cells[i]
		want, err := soferr.BusyIdleMTTF(c.RatePerYear*float64(c.Count), 86400, duties[c.Source]*86400)
		if err != nil {
			t.Fatal(err)
		}
		if re := math.Abs(est.MTTF-want) / want; re > 1e-12 {
			t.Errorf("cell %d exact MTTF = %v, Derivation 1 = %v (rel err %v)", i, est.MTTF, want, re)
		}
	}
}

// TestSweepExactAnswersOverCapSingleTrace: a single trace over the
// merged-table segment cap (DefaultMaxMergedSegments) is still answered
// by the Exact engine, because a one-component system integrates on
// its own trace and never builds a merged table. Every sweep system has
// one component, so no sweep cell falls back to Fused. SoftArch on the
// same cell reads the same state and equals the exact MTTF bit for bit.
func TestSweepExactAnswersOverCapSingleTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >4M-segment trace")
	}
	bits := make([]bool, (1<<22)+2)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	huge, err := soferr.TraceFromBits(bits, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := soferr.BusyIdleTrace(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := soferr.Grid{
		Name: "over-cap",
		Sources: []soferr.TraceSource{
			{Name: "huge", Trace: huge},
			{Name: "small", Trace: small},
		},
		RatesPerYear: []float64{1e6},
		Methods:      []soferr.Method{soferr.MonteCarlo, soferr.SoftArch},
		Seed:         1,
	}
	res, err := soferr.Sweep(context.Background(), g,
		soferr.WithEngine(soferr.Exact), soferr.WithTrials(500))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d cells, want 2", len(res))
	}
	for i, r := range res {
		exact, sa := r.Estimates[0], r.Estimates[1]
		if exact.Engine != soferr.Exact || exact.StdErr != 0 || exact.Trials != 0 {
			t.Errorf("cell %d (%s) did not answer exactly: %+v", i, g.Sources[i].Name, exact)
		}
		if !(exact.MTTF > 0) || math.IsInf(exact.MTTF, 1) {
			t.Errorf("cell %d exact MTTF = %v, want finite positive", i, exact.MTTF)
		}
		if sa.MTTF != exact.MTTF {
			t.Errorf("cell %d SoftArch MTTF = %v, exact = %v; want bit-equal", i, sa.MTTF, exact.MTTF)
		}
	}
}

func TestGridCellsEnumeration(t *testing.T) {
	g := sweepTestGrid(t)
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Row-major: sources outermost, then rates, then counts.
	i := 0
	for si, src := range g.Sources {
		for ri, rate := range g.RatesPerYear {
			for ci, count := range g.Counts {
				want := soferr.Cell{
					Index: i, Source: si, SourceName: src.Name, RateIndex: ri, CountIndex: ci,
					RatePerYear: rate, Count: count, Seed: soferr.CellSeed(g.Seed, i),
				}
				if cells[i] != want {
					t.Errorf("cells[%d] = %+v, want %+v", i, cells[i], want)
				}
				i++
			}
		}
	}
	seen := make(map[uint64]bool)
	for i, c := range cells {
		if seen[c.Seed] {
			t.Errorf("duplicate seed %d at cell %d", c.Seed, i)
		}
		seen[c.Seed] = true
	}
}

func TestGridDefaultCounts(t *testing.T) {
	g := sweepTestGrid(t)
	g.Counts = nil
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		if c.Count != 1 || c.CountIndex != 0 {
			t.Errorf("cell %d count = %d (index %d), want 1 (index 0)", c.Index, c.Count, c.CountIndex)
		}
	}
}

func TestCellSeedStable(t *testing.T) {
	// The derivation is part of the determinism contract: pin a value so
	// accidental changes (which would silently re-randomize every
	// recorded sweep) fail loudly.
	if soferr.CellSeed(1, 0) == soferr.CellSeed(1, 1) || soferr.CellSeed(0, 3) == soferr.CellSeed(1, 3) {
		t.Error("CellSeed collides on adjacent inputs")
	}
	// The first SplitMix64 output for seed 0 (a published reference
	// value): base 0, index 0 mixes exactly one golden-gamma step.
	const want uint64 = 0xe220a8397b1dcdaf
	if got := soferr.CellSeed(0, 0); got != want {
		t.Errorf("CellSeed(0, 0) = %#x, want %#x", got, want)
	}
}

// TestSweepValidationErrors pins the text of every error Grid.Cells and
// SweepCells return before evaluating, and of the per-cell error a
// source that cannot produce a trace streams.
func TestSweepValidationErrors(t *testing.T) {
	one := []soferr.TraceSource{{Name: "a", Trace: mustBusyIdle(t, 100, 50)}}
	for _, tc := range []struct {
		name string
		g    soferr.Grid
		want string
	}{
		{"no sources", soferr.Grid{RatesPerYear: []float64{1}}, "sweep: grid has no sources"},
		{"no rates", soferr.Grid{Sources: one}, "sweep: grid has no rates"},
		{"empty source", soferr.Grid{Sources: []soferr.TraceSource{{Name: "a"}}, RatesPerYear: []float64{1}},
			"sweep: source 0 (a) has neither Trace nor Build"},
		{"negative rate", soferr.Grid{Sources: one, RatesPerYear: []float64{1, -1}}, "sweep: rate 1 is invalid (-1)"},
		{"NaN rate", soferr.Grid{Sources: one, RatesPerYear: []float64{math.NaN()}}, "sweep: rate 0 is invalid (NaN)"},
		{"Inf rate", soferr.Grid{Sources: one, RatesPerYear: []float64{math.Inf(1)}}, "sweep: rate 0 is invalid (+Inf)"},
		{"zero count", soferr.Grid{Sources: one, RatesPerYear: []float64{1}, Counts: []int{1, 0}}, "sweep: count 1 is invalid (0)"},
	} {
		t.Run("Grid.Cells/"+tc.name, func(t *testing.T) {
			if _, err := tc.g.Cells(); err == nil || err.Error() != tc.want {
				t.Errorf("error = %v, want %q", err, tc.want)
			}
		})
	}

	// SweepCellsAll returns SweepCells' own error, or else the first
	// cell's.
	broken := []soferr.TraceSource{
		{Name: "empty"},
		{Name: "nil", Build: func() (soferr.Trace, error) { return nil, nil }},
	}
	for _, tc := range []struct {
		name    string
		sources []soferr.TraceSource
		cells   []soferr.Cell
		want    string
	}{
		{"no cells", one, nil, "sweep: no cells"},
		{"source past end", one, []soferr.Cell{{Source: 2, RatePerYear: 1, Count: 1}}, "sweep: cell 0 references source 2 of 1"},
		{"negative source", one, []soferr.Cell{{Source: -1, RatePerYear: 1, Count: 1}}, "sweep: cell 0 references source -1 of 1"},
		{"zero count", one, []soferr.Cell{{Source: 0, RatePerYear: 1, Count: 1}, {Source: 0, RatePerYear: 1, Count: 0}},
			"sweep: cell 1 has invalid count 0"},
		{"Inf rate", one, []soferr.Cell{{Source: 0, RatePerYear: math.Inf(1), Count: 1}}, "sweep: cell 0 has invalid rate +Inf"},
		{"negative rate", one, []soferr.Cell{{Source: 0, RatePerYear: -2, Count: 1}}, "sweep: cell 0 has invalid rate -2"},
		{"source without trace", broken, []soferr.Cell{{Source: 0, RatePerYear: 1, Count: 1}},
			"sweep: cell 0 (empty): sweep: source 0 (empty) has neither Trace nor Build"},
		{"nil build", broken, []soferr.Cell{{Source: 1, RatePerYear: 1, Count: 1}},
			"sweep: cell 0 (nil): sweep: source nil built a nil trace"},
	} {
		t.Run("SweepCells/"+tc.name, func(t *testing.T) {
			res, err := soferr.SweepCellsAll(context.Background(), tc.sources, tc.cells, nil, nil)
			if res != nil || err == nil || err.Error() != tc.want {
				t.Errorf("SweepCellsAll = %v, %v; want error %q", res, err, tc.want)
			}
		})
	}
}

// TestSweepCellsIndexNormalized: the engine renumbers a hand-built cell
// slice to slice positions and fills in source names, on its own copy.
func TestSweepCellsIndexNormalized(t *testing.T) {
	sources := []soferr.TraceSource{{Name: "a", Trace: mustBusyIdle(t, 100, 50)}}
	cells := []soferr.Cell{
		{Index: 99, Source: 0, RatePerYear: 1, Count: 1},
		{Index: -5, Source: 0, SourceName: "stale", RatePerYear: 2, Count: 1},
	}
	res, err := soferr.SweepCellsAll(context.Background(), sources, cells,
		[]soferr.Method{soferr.AVFSOFR}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Cell.Index != i || r.Cell.SourceName != "a" {
			t.Errorf("result %d has index %d, source name %q", i, r.Cell.Index, r.Cell.SourceName)
		}
	}
	if cells[0].Index != 99 || cells[1].SourceName != "stale" {
		t.Error("SweepCells mutated the caller's cell slice")
	}
}

func TestSweepCellsUnreferencedSourceNotBuilt(t *testing.T) {
	var builds atomic.Int64
	tr := mustBusyIdle(t, 100, 50)
	sources := []soferr.TraceSource{
		{Name: "used", Trace: tr},
		{Name: "unused", Build: func() (soferr.Trace, error) {
			builds.Add(1)
			return tr, nil
		}},
	}
	cells := []soferr.Cell{{Source: 0, RatePerYear: 1, Count: 1}}
	if _, err := soferr.SweepCellsAll(context.Background(), sources, cells,
		[]soferr.Method{soferr.AVFSOFR}, nil); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 0 {
		t.Error("unreferenced lazy source was built")
	}
}

// TestSweepCellsPerCellErrors: a broken source fails its own cells and
// no others; the stream still delivers every cell in order.
func TestSweepCellsPerCellErrors(t *testing.T) {
	boom := errors.New("boom")
	sources := []soferr.TraceSource{
		{Name: "good", Trace: mustBusyIdle(t, 100, 50)},
		{Name: "bad", Build: func() (soferr.Trace, error) { return nil, boom }},
	}
	cells := []soferr.Cell{
		{Source: 0, RatePerYear: 1, Count: 1},
		{Source: 1, RatePerYear: 1, Count: 1},
		{Source: 0, RatePerYear: 2, Count: 1},
	}
	got := collectCells(t, context.Background(), sources, cells, soferr.WithWorkers(1))
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Errorf("good cells errored: %v, %v", got[0].Err, got[2].Err)
	}
	if !errors.Is(got[1].Err, boom) || got[1].Err.Error() != "sweep: cell 1 (bad): sweep: source bad: boom" {
		t.Errorf("bad cell error = %v, want wrapped boom", got[1].Err)
	}
	if got[1].Estimates != nil {
		t.Errorf("failed cell carries estimates: %+v", got[1].Estimates)
	}
}

// TestSweepCellsCancellation: cancelling mid-sweep closes the stream
// promptly. Whatever was delivered is in cell order, and a cell that
// failed carries the context error.
func TestSweepCellsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, 1)
	sources := []soferr.TraceSource{{Name: "blocked", Build: func() (soferr.Trace, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}}}
	var cells []soferr.Cell
	for i := range 64 {
		cells = append(cells, soferr.Cell{Source: 0, RatePerYear: float64(i + 1), Count: 1})
	}
	ch, err := soferr.SweepCells(ctx, sources, cells, []soferr.Method{soferr.AVFSOFR}, soferr.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	last, n := -1, 0
	for r := range ch {
		n++
		if r.Cell.Index <= last {
			t.Errorf("out-of-order delivery: %d after %d", r.Cell.Index, last)
		}
		last = r.Cell.Index
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", r.Cell.Index, r.Err)
		}
	}
	if n > len(cells) {
		t.Errorf("got %d results for %d cells", n, len(cells))
	}
}

// countingTrace counts SurvivalIntegral calls, and panics on any rate
// above panicAbove errors/second when that is positive.
type countingTrace struct {
	soferr.Trace
	calls      *atomic.Int64
	panicAbove float64
}

func (c countingTrace) SurvivalIntegral(rate float64) (float64, float64) {
	c.calls.Add(1)
	if c.panicAbove > 0 && rate > c.panicAbove {
		panic("integral kaboom")
	}
	return c.Trace.SurvivalIntegral(rate)
}

// TestSweepCellsSharedCompilation: cells with equal (source, rate x
// count) products share one System. SoftArch integrates each System's
// trace once, so the SurvivalIntegral calls count the Systems built:
// rates {1,2} x counts {1,2} has products {1,2,2,4}, 3 unique per
// source, so 8 cells build 6 Systems.
func TestSweepCellsSharedCompilation(t *testing.T) {
	var calls [2]atomic.Int64
	g := soferr.Grid{
		Sources: []soferr.TraceSource{
			{Name: "half", Trace: countingTrace{Trace: mustBusyIdle(t, 100, 50), calls: &calls[0]}},
			{Name: "tenth", Trace: countingTrace{Trace: mustBusyIdle(t, 100, 10), calls: &calls[1]}},
		},
		RatesPerYear: []float64{1, 2},
		Counts:       []int{1, 2},
		Methods:      []soferr.Method{soferr.SoftArch},
	}
	res, err := soferr.Sweep(context.Background(), g, soferr.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("got %d results, want 8", len(res))
	}
	for i := range calls {
		if got := calls[i].Load(); got != 3 {
			t.Errorf("source %d built %d Systems, want 3", i, got)
		}
	}
	// Cells 1 and 2 of each source (rate 1 x 2, rate 2 x 1) share one.
	for _, base := range []int{0, 4} {
		if a, b := res[base+1].Estimates[0], res[base+2].Estimates[0]; a != b {
			t.Errorf("cells %d and %d share a product but differ: %+v vs %+v", base+1, base+2, a, b)
		}
	}
}

// TestSweepCellsPanicContainedPerCell: a panic below a cell — in a
// source's Build, or in a trace method one System calls — becomes an
// error of the cells it reaches, wrapping the cell-panic sentinel, and
// every other cell is delivered.
func TestSweepCellsPanicContainedPerCell(t *testing.T) {
	ctx := context.Background()
	var builds atomic.Int64
	sources := []soferr.TraceSource{
		{Name: "good", Trace: mustBusyIdle(t, 100, 50)},
		{Name: "boom", Build: func() (soferr.Trace, error) {
			builds.Add(1)
			panic("build kaboom")
		}},
	}
	cells := []soferr.Cell{
		{Source: 0, RatePerYear: 1, Count: 1},
		{Source: 1, RatePerYear: 1, Count: 1},
		{Source: 1, RatePerYear: 2, Count: 1},
		{Source: 0, RatePerYear: 2, Count: 1},
	}
	got := collectCells(t, ctx, sources, cells, soferr.WithWorkers(2))
	if len(got) != 4 {
		t.Fatalf("got %d results, want 4", len(got))
	}
	for _, i := range []int{0, 3} {
		if got[i].Err != nil {
			t.Errorf("healthy cell %d errored: %v", i, got[i].Err)
		}
	}
	for _, i := range []int{1, 2} {
		checkCellPanic(t, got[i], "build kaboom")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("panicking Build ran %d times, want 1", n)
	}

	// 10/yr is 3.2e-7/s and 100/yr 3.2e-6/s: only the last cell panics.
	var calls atomic.Int64
	sources = []soferr.TraceSource{{Name: "integral", Trace: countingTrace{
		Trace: mustBusyIdle(t, 100, 50), calls: &calls, panicAbove: 1e-6,
	}}}
	cells = []soferr.Cell{
		{Source: 0, RatePerYear: 1, Count: 1},
		{Source: 0, RatePerYear: 10, Count: 1},
		{Source: 0, RatePerYear: 100, Count: 1},
	}
	got = collectCells(t, ctx, sources, cells, soferr.WithWorkers(2))
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	for _, i := range []int{0, 1} {
		if got[i].Err != nil {
			t.Errorf("healthy cell %d errored: %v", i, got[i].Err)
		}
	}
	checkCellPanic(t, got[2], "integral kaboom")
}

// collectCells streams cells with SoftArch and AVF+SOFR and returns
// every result, errors included.
func collectCells(t *testing.T, ctx context.Context, sources []soferr.TraceSource, cells []soferr.Cell, opts ...soferr.EstimateOption) []soferr.CellResult {
	t.Helper()
	ch, err := soferr.SweepCells(ctx, sources, cells, []soferr.Method{soferr.SoftArch, soferr.AVFSOFR}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out []soferr.CellResult
	for r := range ch {
		out = append(out, r)
	}
	return out
}

func checkCellPanic(t *testing.T, r soferr.CellResult, value string) {
	t.Helper()
	if !errors.Is(r.Err, soferr.ErrCellPanic) {
		t.Errorf("cell %d err = %v, want the cell-panic sentinel", r.Cell.Index, r.Err)
		return
	}
	prefix := fmt.Sprintf("sweep: cell %d (%s): sweep: cell evaluation panicked: %s\n", r.Cell.Index, r.Cell.SourceName, value)
	if !strings.HasPrefix(r.Err.Error(), prefix) {
		t.Errorf("cell %d error %q does not start with %q", r.Cell.Index, r.Err, prefix)
	}
}
