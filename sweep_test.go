package soferr_test

import (
	"context"
	"errors"
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

func TestSweepStreamOrderAndMethodsSubset(t *testing.T) {
	g := sweepTestGrid(t)
	g.Methods = []soferr.Method{soferr.SoftArch, soferr.AVFSOFR}
	ch, err := soferr.SweepStream(context.Background(), g, sweepOpts()...)
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

func TestSweepSeedFnOverride(t *testing.T) {
	g := sweepTestGrid(t)
	g.SeedFn = func(c soferr.Cell) uint64 {
		return uint64(c.Source)*1000 + uint64(c.RateIndex)*10 + uint64(c.CountIndex)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		want := uint64(c.Source)*1000 + uint64(c.RateIndex)*10 + uint64(c.CountIndex)
		if c.Seed != want {
			t.Errorf("cell %d seed %d, want %d", c.Index, c.Seed, want)
		}
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

// TestSweepExactFallbackToFused: a cell whose merged hazard table is
// refused (here: a single trace over the segment cap, so even the
// one-component merge exceeds DefaultMaxMergedSegments) degrades to the
// Fused sampler for that cell only, observably via Estimate.Engine; the
// tabulatable cell in the same sweep stays exact.
func TestSweepExactFallbackToFused(t *testing.T) {
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
		Name: "fallback",
		Sources: []soferr.TraceSource{
			{Name: "huge", Trace: huge},
			{Name: "small", Trace: small},
		},
		RatesPerYear: []float64{1e6},
		Methods:      []soferr.Method{soferr.MonteCarlo},
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
	hugeEst, smallEst := res[0].Estimates[0], res[1].Estimates[0]
	if hugeEst.Engine != soferr.Fused || hugeEst.Trials != 500 || !(hugeEst.StdErr > 0) {
		t.Errorf("over-cap cell did not fall back to Fused sampling: %+v", hugeEst)
	}
	if smallEst.Engine != soferr.Exact || smallEst.StdErr != 0 || smallEst.Trials != 0 {
		t.Errorf("tabulatable cell lost the exact engine: %+v", smallEst)
	}
}
