// Command perfbench is the repository's end-to-end benchmark of
// `soferr serve`. It runs the server binary as a child process on a
// loopback port, drives one of four seeded workloads closed-loop over
// two keep-alive connections, checks every response against an
// in-process reference, and prints its metrics as one JSON line:
//
//	perfbench -soferr <binary> --workload hot-queries --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (throughput, p50 and
// p99 latency, set-up time, server peak RSS); with --trace 1 it repeats
// the workload with a span around every client call and replays a
// prefix of the request stream in-process through the repository's
// public functions, reporting per-layer metrics. run.sh builds both
// binaries from the checkout and runs this command; BENCHMARK.json
// records why each workload and metric exists.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRuns is how many times a run starts and warms a fresh server;
// setup_s is their median and the last one serves the timed window.
const setupRuns = 3

// defaultTimeLimit is the server's per-request deadline when a request
// sets none (server.Config.MaxTimeout's default).
const defaultTimeLimit = 60 * time.Second

// runBudget bounds a whole run, leaving headroom below the 180 s a run
// may take.
const runBudget = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	var allocOnly bool
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.BoolVar(&allocOnly, allocReplayFlag, false, "internal: run the traced run's allocation replay and print its figures")
	fs.StringVar(&cfg.workload, "workload", wlHot, "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	fs.StringVar(&cfg.bin, "soferr", ".bench_build/soferr", "soferr binary to serve with")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if fs.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || !(cfg.seconds > 0) {
		fs.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	if allocOnly {
		return printAllocReplay(ctx, cfg)
	}
	res, err := bench(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printAllocReplay is the allocation replay child's main.
func printAllocReplay(ctx context.Context, cfg config) int {
	st, err := generate(cfg.workload, cfg.seed, cfg.seconds, 1)
	if err == nil {
		var out allocStats
		if out, err = allocReplay(ctx, st); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// diag prints a diagnostic line (never the result line).
func diag(out *os.File, format string, args ...any) {
	fmt.Fprintf(out, "# "+format+"\n", args...)
}

// tally counts a window's failed ops: transport errors, non-2xx
// statuses, mismatches and failed checks. Checks run after the window,
// on both connections at once.
func tally(ctx context.Context, w *window, r *refs, hit bool, out *os.File) (attempted, failed int) {
	var bad atomic.Int64
	var shown atomic.Int64
	var wg sync.WaitGroup
	for c, l := range w.logs {
		attempted += len(l.ops)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range l.ops {
				err := opError(ctx, w, c, o, r, hit)
				if err == nil {
					continue
				}
				bad.Add(1)
				if shown.Add(1) <= 5 {
					diag(out, "failed op: %s %s: %v", r.st.reqs[o.req].path, r.st.reqs[o.req].kind, err)
				}
			}
		}()
	}
	wg.Wait()
	return attempted, int(bad.Load())
}

var errTransport = errors.New("transport error")

func opError(ctx context.Context, w *window, c int, o op, r *refs, hit bool) error {
	switch {
	case o.status == 0:
		return errTransport
	case o.status < 200 || o.status > 299:
		return fmt.Errorf("%w %d: %.200s", errBadStatus, o.status, w.body(c, o))
	case o.mismatch:
		return errMismatch
	case o.bodyLen == 0 && r.st.workload == wlHot:
		return nil // compared to its verified canonical response in the loop
	}
	return r.check(ctx, o.req, w.body(c, o), hit)
}

// served is one warmed child with its load generator.
type served struct {
	c  *child
	lg *loadgen
}

func (s *served) stop() {
	s.lg.close()
	s.c.stop()
}

// setup starts a fresh server and runs the stream's warm-up phases,
// returning the warm-up windows (setup time is start to last reply).
func setup(ctx context.Context, cfg config, st *stream) (*served, []*window, time.Duration, error) {
	t0 := time.Now()
	c, err := startChild(ctx, cfg.bin)
	if err != nil {
		return nil, nil, 0, err
	}
	s := &served{c: c, lg: newLoadgen(c.base, st)}
	var warm []*window
	for _, phase := range st.warm {
		var cur atomic.Int64
		warm = append(warm, s.lg.run(ctx, runOpts{seq: phase, cursor: &cur, capHint: len(phase)}))
	}
	d := time.Since(t0)
	if err := ctx.Err(); err != nil {
		s.stop()
		return nil, nil, 0, err
	}
	return s, warm, d, nil
}

// bench runs one workload and returns its result line.
func bench(ctx context.Context, cfg config, out *os.File) (*result, error) {
	windows := 1
	if cfg.trace {
		windows = 2
	}
	st, err := generate(cfg.workload, cfg.seed, cfg.seconds, windows)
	if err != nil {
		return nil, err
	}
	diag(out, "workload %s seed %d seconds %g trace %v: %d distinct requests, %d timed",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, len(st.reqs), len(st.timed))
	t0 := time.Now()
	refs, err := newRefs(ctx, st)
	if err != nil {
		return nil, err
	}
	diag(out, "references computed in %.2f s", time.Since(t0).Seconds())

	res := &result{Metrics: map[string]metric{}}
	var setupS, readyMS []float64
	var srv *served
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		var warm []*window
		var d time.Duration
		srv, warm, d, err = setup(ctx, cfg, st)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		readyMS = append(readyMS, float64(srv.c.readyAt.Sub(srv.c.start))/1e6)
		for p, w := range warm {
			// Only hot-queries' last warm-up pass is past its own warm-up.
			hit := st.workload == wlHot && p == len(warm)-1
			a, f := tally(ctx, w, refs, hit, out)
			res.Attempted += a
			res.Failed += f
		}
		if st.workload == wlHot {
			srv.lg.canonical = canonicalBodies(warm[len(warm)-1], len(st.reqs))
		}
	}
	diag(out, "setup_s samples %s; ready_ms samples %s", fmtFloats(setupS, 3), fmtFloats(readyMS, 1))

	var cursor atomic.Int64
	w, u := timedWindow(ctx, srv, st, &cursor, cfg.seconds, false)
	a, f := tally(ctx, w, refs, true, out)
	res.Attempted += a
	res.Failed += f
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keep := quietSlices(u.sliceSteal)
	e2e := endToEnd(w, keep, cfg.seconds)
	u.print(out, w, a, f)
	diag(out, "host CPU steal per slice %%: %s; the end-to-end metrics use the %d quiet slices of %d",
		fmtFloats(percents(u.sliceSteal), 1), countTrue(keep), len(keep))
	printKinds(out, st, w)
	rss, err := srv.c.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traced(ctx, cfg, st, refs, srv, &cursor, e2e.throughput, median(readyMS), res, out); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["throughput_ops_s"] = metric{e2e.throughput, "1/s"}
		res.Metrics["latency_p50_ms"] = metric{e2e.p50, "ms"}
		res.Metrics["latency_p99_ms"] = metric{e2e.p99, "ms"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["max_rss_mb"] = metric{rss, "MiB"}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			diag(out, "metric %s is %v; reported as 0", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// canonicalBodies keeps each distinct request's verified response from
// a warm-up pass.
func canonicalBodies(w *window, n int) [][]byte {
	out := make([][]byte, n)
	for c, l := range w.logs {
		for _, o := range l.ops {
			out[o.req] = slices.Clone(w.body(c, o))
		}
	}
	return out
}

// usage is the host and process CPU accounting of one timed window.
type usage struct {
	steal, selfCores, serverCores float64
	// sliceSteal is the host steal share of each windowSlices slice of
	// the window, in order; it stops early if the window did.
	sliceSteal []float64
}

func (u usage) print(out *os.File, w *window, attempted, failed int) {
	diag(out, "ops attempted %d failed %d in %.3f s%s; host CPU steal %.2f%%; load generator %.2f cores; server %.2f cores",
		attempted, failed, w.elapsed.Seconds(), map[bool]string{true: " (stream exhausted)"}[w.exhausted],
		100*u.steal, u.selfCores, u.serverCores)
}

// timedWindow runs the stream for seconds from the shared cursor and
// measures host steal and CPU use over the window. A traced window
// records a span around every client call.
func timedWindow(ctx context.Context, srv *served, st *stream, cursor *atomic.Int64, seconds float64, traced bool) (*window, usage) {
	// Leave the previous phase's garbage out of the window.
	runtime.GC()
	cpu0, err0 := readCPUTimes()
	self0 := selfCPUSeconds()
	srv0, errS0 := srv.c.cpuSeconds()
	perConn := int(float64(opsPerSecondCap[st.workload])*seconds) / conns
	windowDone := make(chan struct{})
	sliceSteal := make(chan []float64, 1)
	t0 := time.Now()
	go func() { sliceSteal <- sampleSteal(t0, time.Duration(sliceWidth(seconds)), windowDone) }()
	w := srv.lg.run(ctx, runOpts{seq: st.timed, cursor: cursor,
		deadline: time.Duration(seconds * float64(time.Second)), firstLine: traced && st.workload == wlSweep,
		spans: traced, capHint: perConn / 2})
	close(windowDone)
	cpu1, err1 := readCPUTimes()
	self1 := selfCPUSeconds()
	srv1, errS1 := srv.c.cpuSeconds()
	u := usage{sliceSteal: <-sliceSteal}
	el := w.elapsed.Seconds()
	if err0 == nil && err1 == nil {
		u.steal = stealShare(cpu0, cpu1)
	}
	if el > 0 {
		u.selfCores = (self1 - self0) / el
		if errS0 == nil && errS1 == nil {
			u.serverCores = (srv1 - srv0) / el
		}
	}
	return w, u
}

// sampleSteal reads the host's CPU times at each slice boundary of a
// window that began at t0 and returns each slice's steal share. It stops
// after windowSlices slices, or at done for a window that ends early.
func sampleSteal(t0 time.Time, width time.Duration, done <-chan struct{}) []float64 {
	prev, err := readCPUTimes()
	if err != nil {
		return nil
	}
	var out []float64
	for k := 1; k <= windowSlices; k++ {
		at := t0.Add(time.Duration(k) * width)
		t := time.NewTimer(time.Until(at))
		select {
		case <-t.C:
		case <-done:
			t.Stop()
			if time.Now().Before(at) {
				return out // the window ended inside this slice
			}
		}
		cur, err := readCPUTimes()
		if err != nil {
			return out
		}
		out = append(out, stealShare(prev, cur))
		prev = cur
	}
	return out
}

// ok reports whether an op succeeded: a 2xx status and, on hot-queries,
// the verified canonical response.
func (o op) ok() bool { return o.status >= 200 && o.status <= 299 && !o.mismatch }

// completed is one op as the latency metrics see it.
type completed struct{ end, lat int64 }

// keptOps lists the ops that completed in a kept slice of the window
// (every op when keep is nil); ops completing after the last slice
// belong to it. Failed ops are listed whatever their slice, with a
// latency beyond every limit, so dropping a slice hides no failure.
func keptOps(w *window, keep []bool, seconds float64) []completed {
	width := sliceWidth(seconds)
	var out []completed
	for _, l := range w.logs {
		for _, o := range l.ops {
			end := o.start + o.latency
			switch {
			case !o.ok():
				out = append(out, completed{end, math.MaxInt64})
			case keep == nil || keep[min(end/width, windowSlices-1)]:
				out = append(out, completed{end, o.latency})
			}
		}
	}
	return out
}

// latencies returns the ops' latencies in ascending order.
func latencies(ops []completed) []int64 {
	lat := make([]int64, len(ops))
	for i, d := range ops {
		lat[i] = d.lat
	}
	slices.Sort(lat)
	return lat
}

type e2eMetrics struct {
	throughput, p50, p99 float64
}

// windowSlices is how many equal slices the timed window is cut into.
// Host steal is read at each boundary and throughput counted in each;
// the median quiet slice is reported, so a brief stall of the host
// moves it less than the window's mean would. Half a second each at
// 15 s: short enough to single out the quiet stretches of a burst of
// steal, long enough to hold over a hundred sweep-grid requests.
const windowSlices = 30

// sliceWidth is the length of one windowSlices slice in ns.
func sliceWidth(seconds float64) int64 { return int64(seconds * 1e9 / windowSlices) }

// binnedThroughput is the median over the window's kept slices (all of
// them when keep is nil) of the successful ops completed per second in
// each slice.
func binnedThroughput(w *window, seconds float64, keep []bool) float64 {
	width := sliceWidth(seconds)
	counts := make([]float64, windowSlices)
	for _, l := range w.logs {
		for _, o := range l.ops {
			if !o.ok() {
				continue
			}
			if b := (o.start + o.latency) / width; b < windowSlices {
				counts[b]++
			}
		}
	}
	var rates []float64
	for i, c := range counts {
		if keep == nil || keep[i] {
			rates = append(rates, c/(float64(width)/1e9))
		}
	}
	return median(rates)
}

// endToEnd computes the window's throughput and latency percentiles
// over its kept slices.
func endToEnd(w *window, keep []bool, seconds float64) e2eMetrics {
	var m e2eMetrics
	m.throughput = binnedThroughput(w, seconds, keep)
	ops := keptOps(w, keep, seconds)
	lat := latencies(ops)
	p50, _ := percentile(lat, 0.5)
	m.p50 = float64(p50) / 1e6
	if _, beyond := percentile(lat, 0.99); beyond < minBeyond {
		// Too few samples for p99: report the highest percentile that
		// has enough (and say so).
		q := highestPercentile(lat)
		v, _ := percentile(lat, q)
		m.p99 = float64(v) / 1e6
		fmt.Fprintf(os.Stdout, "# only %d samples beyond p99 of %d; latency_p99_ms reports p%g\n", beyond, len(lat), 100*q)
		return m
	}
	p99, k := slicedP99(ops)
	m.p99 = p99 / 1e6
	fmt.Fprintf(os.Stdout, "# latency_p99_ms is the median p99 of %d consecutive slices of the %d requests kept\n", k, len(ops))
	return m
}

// samplesPerSlice is the fewest requests a p99 slice holds, so each
// slice's p99 has at least minBeyond samples beyond it.
const samplesPerSlice = 100 * minBeyond

// p99Slices is the most runs of requests slicedP99 takes a median over.
const p99Slices = 10

// slicedP99 splits the requests, in completion order, into up to
// p99Slices runs of at least samplesPerSlice each and returns
// the median of the slices' p99 latencies (ns) and the slice count. A
// host stall that spans one slice moves it less than the window's p99.
func slicedP99(ops []completed) (float64, int) {
	all := slices.Clone(ops)
	slices.SortFunc(all, func(a, b completed) int { return cmp.Compare(a.end, b.end) })
	k := min(max(len(all)/samplesPerSlice, 1), p99Slices)
	p99s := make([]float64, k)
	for i := range p99s {
		v, _ := percentile(latencies(all[i*len(all)/k:(i+1)*len(all)/k]), 0.99)
		p99s[i] = float64(v)
	}
	return median(p99s), k
}

// printKinds prints each request kind's share and median latency in
// ascending cost order, with the cumulative share, so a reader can see
// that p50 and p99 fall inside one kind rather than between two.
func printKinds(out *os.File, st *stream, w *window) {
	by := map[string][]float64{}
	total := 0
	for _, l := range w.logs {
		for _, o := range l.ops {
			by[st.reqs[o.req].kind] = append(by[st.reqs[o.req].kind], float64(o.latency)/1e6)
			total++
		}
	}
	kinds := make([]string, 0, len(by))
	for k := range by {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return median(by[kinds[i]]) < median(by[kinds[j]]) })
	cum := 0
	var b strings.Builder
	for _, k := range kinds {
		cum += len(by[k])
		fmt.Fprintf(&b, " %s=%.4fms(n=%d,cum=%.1f%%)", k, median(by[k]), len(by[k]), 100*float64(cum)/float64(total))
	}
	lat := latencies(keptOps(w, nil, 0))
	_, beyond := percentile(lat, 0.99)
	diag(out, "kinds by median latency:%s; n=%d, %d beyond p99", b.String(), len(lat), beyond)
}

func fmtFloats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*f", prec, x)
	}
	return strings.Join(parts, " ")
}
