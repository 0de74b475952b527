// Command soferr runs the paper-reproduction experiments and utilities.
//
// Usage:
//
//	soferr list                      list the experiments (tables/figures)
//	soferr run <id>|all [flags]      run experiments and print their tables
//	soferr run <spec.json> [flags]   compile a system Spec file and compare methods
//	soferr sweep [flags]             evaluate a user-defined design-space grid
//	soferr serve [flags]             serve MTTF queries over HTTP (POST a Spec)
//	soferr workloads [flags]         simulate every benchmark; print stats and AVFs
//	soferr config                    print the Table 1 machine configuration
//
// Flags for sweep (axes are comma-separated lists; the grid is their
// cross product, evaluated concurrently and deterministically on the
// sweep engine — see DESIGN.md, "Sweep engine"):
//
//	-workloads LIST  schedule sources: day, week, combined
//	-duty LIST       busy/idle sources by duty cycle over -period seconds
//	-bench LIST      simulated benchmark sources (see 'soferr workloads')
//	-ns LIST         raw-rate axis as N x S products (rate = NxS x 1e-8/yr)
//	-rates LIST      raw-rate axis in errors/year
//	-counts LIST     component-count axis C (default 1)
//	-methods LIST    estimator axis (default avf+sofr,montecarlo,softarch)
//	-trials N -seed N -engine NAME -sampler NAME -target-rse T -workers N -instructions N
//	-server URL      evaluate on a running `soferr serve`, sending the same query
//	-cursor K        with -server: resume from absolute cell K
//	-csv | -json     output format (default aligned text, streamed)
//
// The query flags -trials, -seed, -engine, -sampler and -target-rse fill
// one soferr.Query, registered the same way for run and sweep (names are
// case-insensitive). Flags for run / workloads:
//
//	-trials N        run: Monte-Carlo trials per point (default 200000)
//	-instructions N  simulated instructions per benchmark (default 300000)
//	-seed N          deterministic seed (default 1); run: also the benchmark
//	                 simulation seed, 0 meaning the default seed 1
//	-engine NAME     run: Monte-Carlo engine: fused (default) or exact
//	-sampler NAME    run <spec.json>: Monte-Carlo sampler: pcg or sobol (quasi-Monte-Carlo);
//	                 unset: sobol for -target-rse runs where the system allows it, else pcg
//	-target-rse T    run <spec.json>: adaptive precision target (rel stderr; -trials caps it)
//	-methods LIST    run <spec.json>: methods to compare (default all)
//	-quick           run <id>|all: shrink grids and trial counts
//	-csv             run: emit CSV instead of aligned text
//	-json            run: emit JSON (tables plus typed estimates)
//	-v               log progress to stderr
//
// Flags for serve (the MTTF query service; see internal/server for the
// endpoints and DESIGN.md, "Serving layer", for the cache contract):
//
//	-addr HOST:PORT    listen address (default 127.0.0.1:8080)
//	-cache N           compiled-System LRU capacity (default 128)
//	-max-concurrent N  in-flight query bound (default GOMAXPROCS)
//	-trials N          default Monte-Carlo trials (default 200000)
//	-timeout D         per-request deadline cap (default 60s; 0 = unlimited)
//	-grace D           shutdown grace period (default 30s)
//	-instructions N -sim-seed N -v
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/benchsim"
	"github.com/soferr/soferr/internal/experiments"
	"github.com/soferr/soferr/internal/workload"
)

func main() {
	// Interrupts cancel in-flight Monte-Carlo sweeps cleanly instead of
	// killing the process mid-table. After the first signal has
	// cancelled ctx, restore the default disposition so a second
	// interrupt kills immediately (e.g. to abort `serve`'s graceful
	// drain).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "soferr:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stdout)
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	q := soferr.Query{Seed: 1}
	queryFlags(fs, &q)
	var (
		instructions = fs.Int("instructions", 0, "instructions per simulated benchmark (0 = default)")
		methodsFlag  = fs.String("methods", "", "run <spec.json>: comma-separated methods to compare (default all)")
		quick        = fs.Bool("quick", false, "run <id>|all: shrink grids and trial counts")
		asCSV        = fs.Bool("csv", false, "emit CSV instead of text")
		asJSON       = fs.Bool("json", false, "emit JSON (tables plus typed estimates) instead of text")
		verbose      = fs.Bool("v", false, "log progress to stderr")
	)

	switch cmd {
	case "list":
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil

	case "config":
		r := experiments.NewRunner(experiments.Options{Quick: true})
		tab, err := r.Table1(ctx)
		if err != nil {
			return err
		}
		return tab.Fprint(stdout)

	case "run":
		if len(rest) == 0 {
			return fmt.Errorf("run: need an experiment id, 'all', or a Spec JSON file (try 'soferr list')")
		}
		id := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		if *asCSV && *asJSON {
			return fmt.Errorf("run: -csv and -json are mutually exclusive")
		}
		// Some flags apply to only one kind of argument. Reject a set flag
		// the argument cannot use instead of silently ignoring it; Visit
		// sees only flags given on the command line, never defaults.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		// A Spec JSON file compiles through the same soferr.Spec path the
		// sweep CLI and the HTTP server use, so file- and HTTP-supplied
		// systems share one code path. Experiment ids always win: a file
		// in the working directory named "fig5" or "all" must not shadow
		// the experiment.
		if _, idErr := experiments.ByID(id); id != "all" && idErr != nil && isSpecFile(id) {
			if set["quick"] {
				return fmt.Errorf("run: -quick applies to experiments, not to Spec file %s", id)
			}
			return runSpecFile(ctx, id, stdout, stderr, q, specFileOptions{
				instructions: *instructions,
				methods:      *methodsFlag,
				asCSV:        *asCSV,
				asJSON:       *asJSON,
				verbose:      *verbose,
			})
		}
		for _, name := range []string{"sampler", "target-rse", "methods"} {
			if set[name] {
				return fmt.Errorf("run: -%s applies to Spec files, not to experiment %q", name, id)
			}
		}
		opt := experiments.Options{
			Trials:       q.Trials,
			Instructions: *instructions,
			Seed:         q.Seed,
			Engine:       q.Engine,
			Quick:        *quick,
		}
		if *verbose {
			opt.Log = stderr
		}
		r := experiments.NewRunner(opt)
		var list []experiments.Experiment
		if id == "all" {
			list = experiments.All()
		} else {
			e, err := experiments.ByID(id)
			if err != nil {
				return err
			}
			list = []experiments.Experiment{e}
		}
		// JSON output is one valid document — an array of tables — so
		// `run all -json` stays machine-parseable; collect before
		// emitting.
		var jsonTables []*experiments.Table
		for i, e := range list {
			tab, err := e.Run(r, ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			switch {
			case *asJSON:
				jsonTables = append(jsonTables, tab)
			case *asCSV:
				if err := tab.WriteCSV(stdout); err != nil {
					return err
				}
			default:
				if err := tab.Fprint(stdout); err != nil {
					return err
				}
			}
			if i < len(list)-1 && !*asJSON {
				fmt.Fprintln(stdout)
			}
		}
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(jsonTables)
		}
		return nil

	case "workloads":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		n := *instructions
		if n == 0 {
			n = 100000
		}
		return runWorkloads(stdout, n, q.Seed)

	case "sweep":
		// sweep has its own axis flags; see cmd/soferr/sweep.go.
		return runSweep(ctx, rest, stdout, stderr)

	case "serve":
		// serve has its own flags; see cmd/soferr/serve.go.
		return runServe(ctx, rest, stdout, stderr)

	case "help", "-h", "--help":
		usage(stdout)
		return nil

	default:
		usage(stderr)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// queryFlags registers the Monte-Carlo query flags -trials, -seed,
// -engine, -sampler and -target-rse on fs, writing into q; q's values
// on entry are the defaults. run and sweep both register through it,
// and sweep -server sends the same Query, so no entry point restates a
// setting or parses an engine or sampler name itself.
func queryFlags(fs *flag.FlagSet, q *soferr.Query) {
	fs.IntVar(&q.Trials, "trials", q.Trials, "Monte-Carlo trials per query, the cap under -target-rse (0 = default)")
	fs.Uint64Var(&q.Seed, "seed", q.Seed, "deterministic seed (run, sweep: also the benchmark simulation seed, 0 meaning 1; sweep: the base seed, per-cell streams derive from (seed, cell index))")
	fs.TextVar(&q.Engine, "engine", q.Engine, "Monte-Carlo engine `name`: fused or exact")
	fs.TextVar(&q.Sampler, "sampler", q.Sampler, "Monte-Carlo sampler `name`: pcg or sobol (quasi-Monte-Carlo); unset: sobol for -target-rse runs where the system allows it, else pcg")
	fs.Float64Var(&q.TargetRelStdErr, "target-rse", q.TargetRelStdErr, "adaptive precision target (relative standard error; 0 = fixed trials)")
}

func runWorkloads(w io.Writer, instructions int, seed uint64) error {
	fmt.Fprintf(w, "%-9s %7s %8s %8s | %7s %7s %7s %7s\n",
		"bench", "ipc", "mispred", "l2miss", "dec", "int", "fp", "reg")
	for _, p := range workload.All() {
		tr, stats, err := benchsim.Simulate(p.Name, instructions, seed, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-9s %7.3f %7.1f%% %8d | %7.3f %7.3f %7.3f %7.3f\n",
			p.Name, stats.IPC(), 100*stats.MispredictRate(), stats.L2Misses,
			tr.Decode.AVF(), tr.Int.AVF(), tr.FP.AVF(), tr.RegFile.AVF())
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `soferr - architecture-level soft error analysis (DSN'07 reproduction)

commands:
  list         list the experiments (paper tables/figures)
  run <id|all> run experiments and print their tables
  run <spec.json> compile a system Spec file and compare methods
  sweep        evaluate a user-defined design-space grid (workloads x rates x counts x methods)
  serve        serve MTTF queries over HTTP (POST a Spec to /v1/mttf, /v1/sweep, ...)
  workloads    simulate every benchmark; print stats and AVFs
  config       print the Table 1 machine configuration

query flags (run and sweep; one soferr.Query):
  -trials N -seed N -engine fused|exact -sampler pcg|sobol -target-rse T
  (no -sampler: sobol for -target-rse runs where the system allows it, else pcg;
  -seed also seeds the benchmark simulations, 0 meaning the default seed 1)
flags for run:
  -instructions N -methods LIST -quick -csv -json -v
flags for sweep:
  -workloads day,week,combined -duty LIST -period S -bench LIST
  -ns LIST -rates LIST -counts LIST -methods LIST
  -workers N -instructions N -server URL -cursor K -csv -json -v
flags for serve:
  -addr HOST:PORT -cache N -max-concurrent N -trials N -timeout D -grace D
  -instructions N -sim-seed N -v
flags for workloads:
  -instructions N -seed N
`)
}
