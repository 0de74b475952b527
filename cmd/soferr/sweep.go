package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/client"
	"github.com/soferr/soferr/internal/design"
)

// runSweep implements the `soferr sweep` subcommand: build a design-
// space grid from the axis flags, evaluate it on the sweep engine, and
// stream the results as text, CSV, or JSON. The Section 5 experiment
// tables run on the same engine (`soferr run fig5 ...`); this command
// is the free-form counterpart for user-defined grids.
func runSweep(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	q := soferr.Query{Seed: 1}
	queryFlags(fs, &q)
	fs.IntVar(&q.Workers, "workers", 0, "total sweep parallelism (0 = GOMAXPROCS)")
	var (
		workloads    = fs.String("workloads", "", "schedule sources: comma-separated day,week,combined")
		duty         = fs.String("duty", "", "duty-cycle sources: comma-separated busy fractions in [0,1] over -period")
		period       = fs.Float64("period", 86400, "loop period in seconds for -duty sources")
		bench        = fs.String("bench", "", "benchmark sources: comma-separated names (simulated; see 'soferr workloads')")
		ns           = fs.String("ns", "", "N x S axis: comma-separated element x scale products (rate = NxS x 1e-8/yr)")
		rates        = fs.String("rates", "", "raw-rate axis in errors/year (alternative or addition to -ns)")
		counts       = fs.String("counts", "1", "component-count axis C")
		methods      = fs.String("methods", "", "estimator axis: comma-separated avf+sofr,montecarlo,softarch (default all)")
		instructions = fs.Int("instructions", 0, "instructions per simulated benchmark source (0 = default)")
		asCSV        = fs.Bool("csv", false, "emit CSV instead of text")
		asJSON       = fs.Bool("json", false, "emit JSON instead of text")
		verbose      = fs.Bool("v", false, "log progress to stderr")
		serverURL    = fs.String("server", "", "evaluate on a running `soferr serve` instance (base URL) instead of in-process")
		cursor       = fs.Int64("cursor", 0, "with -server: resume the sweep from this absolute cell index")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asCSV && *asJSON {
		return fmt.Errorf("sweep: -csv and -json are mutually exclusive")
	}

	// Axis flags lower onto declarative SourceSpecs, compiled through
	// the same soferr.Compiler path that serves file- and HTTP-supplied
	// Specs (`soferr run spec.json`, `soferr serve`), so every entry
	// point builds identical traces. Sources are lazy: nothing simulates
	// unless its axis point is actually swept, and benchmark simulations
	// are shared compiler-wide.
	comp := &soferr.Compiler{Instructions: *instructions, SimSeed: q.Seed}
	if *verbose {
		comp.Log = stderr
	}

	var srcSpecs []soferr.SourceSpec
	for _, w := range splitList(*workloads) {
		switch w {
		case "day", "week", "combined":
			srcSpecs = append(srcSpecs, soferr.SourceSpec{Name: w, Trace: soferr.TraceSpec{Kind: w}})
		default:
			return fmt.Errorf("sweep: unknown workload %q (want day, week, or combined)", w)
		}
	}
	if *duty != "" {
		duties, err := parseFloats(*duty)
		if err != nil {
			return fmt.Errorf("sweep: -duty: %w", err)
		}
		ds, err := soferr.BusyIdleSourceSpecs(*period, duties)
		if err != nil {
			return err
		}
		srcSpecs = append(srcSpecs, ds...)
	}
	for _, b := range splitList(*bench) {
		srcSpecs = append(srcSpecs, soferr.SourceSpec{
			Name:  b,
			Trace: soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: b},
		})
	}
	if len(srcSpecs) == 0 {
		return fmt.Errorf("sweep: no sources (give -workloads, -duty, and/or -bench)")
	}
	for _, sp := range srcSpecs {
		if err := sp.Trace.Validate(); err != nil {
			return fmt.Errorf("sweep: source %s: %w", sp.Name, err)
		}
	}
	sources := comp.Sources(srcSpecs)

	var ratesPerYear []float64
	if *ns != "" {
		nsVals, err := parseFloats(*ns)
		if err != nil {
			return fmt.Errorf("sweep: -ns: %w", err)
		}
		for _, v := range nsVals {
			ratesPerYear = append(ratesPerYear, design.RatePerYear(v, 1))
		}
	}
	if *rates != "" {
		rs, err := parseFloats(*rates)
		if err != nil {
			return fmt.Errorf("sweep: -rates: %w", err)
		}
		ratesPerYear = append(ratesPerYear, rs...)
	}
	if len(ratesPerYear) == 0 {
		return fmt.Errorf("sweep: no rates (give -ns and/or -rates)")
	}

	countAxis, err := parseInts(*counts)
	if err != nil {
		return fmt.Errorf("sweep: -counts: %w", err)
	}

	var methodAxis []soferr.Method
	for _, m := range splitList(*methods) {
		mm, err := soferr.MethodByName(m)
		if err != nil {
			return err
		}
		methodAxis = append(methodAxis, mm)
	}
	if len(methodAxis) == 0 {
		methodAxis = soferr.Methods()
	}

	if *cursor != 0 && *serverURL == "" {
		return fmt.Errorf("sweep: -cursor requires -server (local sweeps always run whole)")
	}

	// JSON collects (one valid document); text and CSV stream rows as
	// cells complete, which both the engine and the server's NDJSON
	// stream deliver in cell order. render handles one cell for all
	// three formats, shared by the local and -server paths.
	var jsonResults []soferr.CellResult
	var cw *csv.Writer
	switch {
	case *asJSON:
	case *asCSV:
		cw = csv.NewWriter(stdout)
		if err := cw.Write([]string{
			"source", "rate_per_year", "count", "seed",
			"method", "mttf_seconds", "fit", "stderr_seconds", "rel_stderr",
		}); err != nil {
			return err
		}
	default:
		fmt.Fprintf(stdout, "%-14s %12s %8s  %-10s %14s %12s %10s\n",
			"source", "rate/yr", "C", "method", "MTTF (s)", "FIT", "rel err")
	}
	render := func(res soferr.CellResult) error {
		switch {
		case *asJSON:
			jsonResults = append(jsonResults, res)
		case *asCSV:
			for _, e := range res.Estimates {
				if err := cw.Write([]string{
					res.Cell.SourceName,
					formatG(res.Cell.RatePerYear),
					strconv.Itoa(res.Cell.Count),
					strconv.FormatUint(res.Cell.Seed, 10),
					e.Method.String(),
					formatG(e.MTTF),
					formatG(e.FIT),
					formatG(e.StdErr),
					formatG(e.RelStdErr()),
				}); err != nil {
					return err
				}
			}
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
		default:
			for _, e := range res.Estimates {
				fmt.Fprintf(stdout, "%-14s %12.4g %8d  %-10s %14.6g %12.4g %9.2f%%\n",
					res.Cell.SourceName, res.Cell.RatePerYear, res.Cell.Count,
					e.Method.String(), e.MTTF, e.FIT, 100*e.RelStdErr())
			}
		}
		return nil
	}
	finish := func() error {
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				Name  string              `json:"name"`
				Cells []soferr.CellResult `json:"cells"`
			}{"sweep", jsonResults})
		}
		return nil
	}

	if *serverURL != "" {
		// Client mode: stream the same grid from a running server over
		// NDJSON, sending the same Query the local path runs. The server
		// derives per-cell seeds from absolute grid indices, so the
		// answers are bit-identical to the local path, and a cut stream
		// resumes automatically (or manually via -cursor) without
		// changing them.
		if *instructions != 0 {
			fmt.Fprintln(stderr, "sweep: -instructions is ignored with -server (the server bounds simulation itself)")
		}
		// Zero trials mean soferr.DefaultTrials locally; the server would
		// read them as its own -trials default, so resolve them here.
		if q.Trials <= 0 {
			q.Trials = soferr.DefaultTrials
		}
		req := client.SweepRequest{
			Name:         "sweep",
			Sources:      srcSpecs,
			RatesPerYear: ratesPerYear,
			Counts:       countAxis,
			Methods:      splitList(*methods),
			Query:        q,
			Cursor:       *cursor,
		}
		c := client.New(client.Config{BaseURL: *serverURL})
		err := c.SweepStream(ctx, req, func(sc client.SweepCell) error {
			if sc.Err != "" {
				return fmt.Errorf("sweep: cell %d (%s): %s", sc.Cell.Index, sc.Cell.SourceName, sc.Err)
			}
			return render(soferr.CellResult{Cell: sc.Cell, Estimates: sc.Estimates})
		})
		if err != nil {
			return err
		}
		return finish()
	}

	grid := soferr.Grid{
		Name:         "sweep",
		Sources:      sources,
		RatesPerYear: ratesPerYear,
		Counts:       countAxis,
		Methods:      methodAxis,
		Seed:         q.Seed,
	}
	cells, err := grid.Cells()
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(stderr, "sweep: %d sources x %d rates x %d counts = %d cells, %d methods each\n",
			len(sources), len(ratesPerYear), len(countAxis), len(cells), len(methodAxis))
	}

	// Cancel on any early return (cell error, write error) so the
	// worker pool and reorder goroutine wind down instead of leaking —
	// SweepCells' channel must be drained or its context cancelled.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := soferr.SweepCells(ctx, grid.Sources, cells, grid.Methods, soferr.WithQuery(q))
	if err != nil {
		return err
	}
	done := 0
	for res := range ch {
		if res.Err != nil {
			return res.Err
		}
		done++
		if err := render(res); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if done != len(cells) {
		return fmt.Errorf("sweep: delivered %d of %d cells", done, len(cells))
	}
	return finish()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
