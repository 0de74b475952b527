package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/numeric"
	"github.com/soferr/soferr/internal/server"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
	"github.com/soferr/soferr/internal/xrand"
)

// replayPrefix is how many requests of the timed stream the traced run
// replays in-process. Multiples of the 20-request mix blocks keep the
// replayed mix identical to the stream's.
var replayPrefix = map[string]int{
	wlHot:      2000,
	wlCold:     400,
	wlAdaptive: 40,
	wlSweep:    20,
}

// perLayer is every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"http.transport_us", "us"},
	{"server.handler_us", "us"},
	{"server.decode_us", "us"},
	{"soferr.spec_hash_us", "us"},
	{"soferr.query_us", "us"},
	{"soferr.memo_hit_ratio", "ratio"},
	{"server.encode_us", "us"},
	{"server.unattributed_us", "us"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cycles_per_kop", "count"},
	{"go.gc_pause_us_per_op", "us"},
	{"server.lru_hits_per_op", "count"},
	{"server.lru_misses_per_op", "count"},
	{"server.lru_evictions_per_op", "count"},
	{"server.compiles_per_op", "count"},
	{"server.compile_us", "us"},
	{"soferr.spec_validate_us", "us"},
	{"soferr.compile_us", "us"},
	{"trace.merge_build_us", "us"},
	{"trace.merged_segments", "count"},
	{"montecarlo.exact_us", "us"},
	{"montecarlo.trials_per_op", "count"},
	{"montecarlo.rounds_per_op", "count"},
	{"montecarlo.trial_ns_merged", "ns"},
	{"montecarlo.trial_ns_fallback", "ns"},
	{"montecarlo.share", "ratio"},
	{"xrand.pcg_draw_ns", "ns"},
	{"trace.invert_ns", "ns"},
	{"trace.invert_sorted_ns", "ns"},
	{"numeric.welford_add_ns", "ns"},
	{"sweep.cells_per_op", "count"},
	{"sweep.systems_per_op", "count"},
	{"sweep.first_cell_ms", "ms"},
	{"sweep.cell_us", "us"},
	{"softarch.query_us", "us"},
	{"sweep.encode_us_per_cell", "us"},
	{"turandot.simulate_ms", "ms"},
	{"server.ready_ms", "ms"},
	{"tracing.overhead_pct", "%"},
}

// layerReport collects per-layer values with their sample counts.
type layerReport struct {
	vals map[string]float64
	n    map[string]int
}

func (lr *layerReport) set(name string, v float64, n int) {
	lr.vals[name] = v
	lr.n[name] = n
}

// setMedian reports the median of a sample (skipped when empty).
func (lr *layerReport) setMedian(name string, xs []float64) {
	if len(xs) > 0 {
		lr.set(name, median(xs), len(xs))
	}
}

// traced runs the traced window on the warmed server, replays a fixed
// prefix of the stream in-process, and fills res with every per-layer
// metric. baseline is the untraced window's throughput.
func traced(ctx context.Context, cfg config, st *stream, r *refs, srv *served, cursor *atomic.Int64,
	baseline, readyMS float64, res *result, out *os.File) error {
	lr := &layerReport{vals: map[string]float64{}, n: map[string]int{}}
	before, err := fetchMetrics(ctx, srv.lg)
	if err != nil {
		return err
	}
	w, u := timedWindow(ctx, srv, st, cursor, cfg.seconds, true)
	after, err := fetchMetrics(ctx, srv.lg)
	if err != nil {
		return err
	}
	a, f := tally(ctx, w, r, true, out)
	res.Attempted += a
	res.Failed += f
	delta, err := perOp(before, after, a)
	if err != nil {
		return err
	}
	// One span list for both connections; parents index into it.
	var spans []span
	for _, rec := range w.recs {
		off := int32(len(spans))
		for _, sp := range rec.spans {
			if sp.parent >= 0 {
				sp.parent += off
			}
			spans = append(spans, sp)
		}
	}
	roundTrip := mean(durationsUS(spans, "client.request"))
	tracedThroughput := binnedThroughput(w, cfg.seconds, quietSlices(u.sliceSteal))
	lr.set("tracing.overhead_pct", 100*(baseline-tracedThroughput)/baseline, a)
	lr.set("server.handler_us", delta.handlerUS, int(delta.requests))
	lr.set("http.transport_us", roundTrip-delta.handlerUS, a)
	lr.set("server.lru_hits_per_op", delta.lruHits, a)
	lr.set("server.lru_misses_per_op", delta.lruMisses, a)
	lr.set("server.lru_evictions_per_op", delta.lruEvictions, a)
	lr.set("server.compiles_per_op", delta.compiles, a)
	if delta.compiles > 0 {
		lr.set("server.compile_us", delta.compileUS, int(delta.compiles*float64(a)))
	}
	lr.set("server.ready_ms", readyMS, setupRuns)
	respStats(st, srv.lg, w, lr)
	if fl := durationsUS(spans, "sweep.first_line"); len(fl) > 0 {
		for i := range fl {
			fl[i] /= 1e3
		}
		lr.setMedian("sweep.first_cell_ms", fl)
	}

	prefix := st.timed[:min(replayPrefix[st.workload], len(st.timed))]
	rp := &replayer{st: st, comp: r.comp, rec: newRecorder(time.Now(), 64*len(prefix)), sys: map[string]*soferr.System{}}
	if err := rp.warm(ctx); err != nil {
		return err
	}
	if err := rp.replay(ctx, prefix, lr); err != nil {
		return err
	}
	stages := selfByName(rp.rec.spans)
	lr.setMedian("server.decode_us", stages["server.decode"])
	lr.setMedian("soferr.spec_hash_us", stages["soferr.spec_hash"])
	lr.setMedian("soferr.query_us", stages["soferr.query"])
	lr.setMedian("server.encode_us", stages["server.encode"])
	lr.setMedian("soferr.spec_validate_us", stages["soferr.spec_validate"])
	lr.setMedian("soferr.compile_us", stages["soferr.compile"])
	lr.setMedian("trace.merge_build_us", stages["trace.merge_build"])
	lr.setMedian("montecarlo.exact_us", stages["montecarlo.exact"])
	lr.setMedian("softarch.query_us", stages["softarch.query"])
	lr.setMedian("sweep.encode_us_per_cell", stages["sweep.encode_line"])
	lr.setMedian("sweep.cell_us", rp.cellUS)
	lr.setMedian("trace.merged_segments", rp.segments)
	if lines := stages["sweep.encode_line"]; len(lines) > 0 {
		// A sweep response's encode stage is all its lines.
		lr.set("server.encode_us", mean(lines)*float64(len(lines))/float64(len(prefix)), len(lines))
	}
	// The replayed stages of one request: what the handler does between
	// reading the body and writing the response. Their means (over a
	// prefix whose request mix is the stream's) are subtracted from the
	// server's mean handler time; the reported stage figures are medians.
	stageMeans := 0.0
	for _, name := range []string{"server.decode", "soferr.spec_hash", "soferr.compile", "soferr.query", "server.encode", "sweep.encode_line"} {
		if name == "soferr.compile" && st.workload != wlCold {
			continue // hot and adaptive Specs compile at warm-up only
		}
		stageMeans += sum(stages[name]) / float64(len(prefix))
	}
	lr.set("server.unattributed_us", delta.handlerUS-stageMeans, len(prefix))
	if st.workload == wlAdaptive {
		lr.set("montecarlo.share", mean(stages["soferr.query"])/roundTrip, len(prefix))
		if err := microBenches(ctx, rp, lr); err != nil {
			return err
		}
	}
	diag(out, "round trip %.2f us = transport %.2f + replayed stage means %.2f + unattributed %.2f (handler %.2f)",
		roundTrip, lr.vals["http.transport_us"], stageMeans, lr.vals["server.unattributed_us"], delta.handlerUS)

	if err := runAllocReplay(ctx, cfg, lr); err != nil {
		return err
	}
	if err := simulateBenchmarks(st, lr); err != nil {
		return err
	}

	var missing []string
	var b strings.Builder
	for _, m := range perLayer {
		v, ok := lr.vals[m.name]
		if !ok {
			missing = append(missing, m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Fprintf(&b, "\n#   %-30s %14.4f %-6s n=%d", m.name, v, m.unit, lr.n[m.name])
	}
	diag(out, "per-layer metrics (medians unless a count or ratio):%s", b.String())
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.tsv", cfg.workload, cfg.seed))
	if err := writeSpans(path, map[string][]span{"client": spans, "replay": rp.rec.spans}); err != nil {
		return err
	}
	diag(out, "spans written to %s", path)
	if len(missing) > 0 {
		diag(out, "not measured on %s, reported as 0 (the workload does not reach these layers): %s",
			st.workload, strings.Join(missing, ", "))
	}
	return nil
}

// writeSpans writes every span with its self time, one per line:
// source, name, request, parent, start ns, end ns, self ns.
func writeSpans(path string, groups map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "source\tname\treq\tparent\tstart_ns\tend_ns\tself_ns")
	for _, src := range []string{"client", "replay"} {
		self := selfTimes(groups[src])
		for i, sp := range groups[src] {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n", src, sp.name, sp.req, sp.parent, sp.start, sp.end, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// durationsUS returns the durations of the spans of one name in µs.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// fetchMetrics reads the server's /metrics document.
func fetchMetrics(ctx context.Context, lg *loadgen) (serverMetrics, error) {
	var m serverMetrics
	body, err := lg.get(ctx, "/metrics")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

// respCounts are the counts one response carries.
type respCounts struct {
	mc, cached, cells int
}

// countResponse reads a response's Monte-Carlo estimates and cells.
func countResponse(workload string, body []byte) respCounts {
	var c respCounts
	addEst := func(e soferr.Estimate) {
		if e.Method == soferr.MonteCarlo {
			c.mc++
			if e.Cached {
				c.cached++
			}
		}
	}
	if workload == wlSweep {
		_, _ = parseSweep(body, func(_ int, l sweepLine) error {
			c.cells++
			for _, e := range l.Estimates {
				addEst(e)
			}
			return nil
		})
		return c
	}
	var q queryResponse
	if json.Unmarshal(body, &q) == nil {
		if q.Estimate != nil {
			addEst(*q.Estimate)
		}
		for _, e := range q.Estimates {
			addEst(e)
		}
	}
	return c
}

// respStats derives the memo hit ratio and cells per op from the
// traced window's responses (hot-queries' from their canonical bodies,
// which every response matched).
func respStats(st *stream, lg *loadgen, w *window, lr *layerReport) {
	var tot respCounts
	ops := 0
	for c, l := range w.logs {
		for _, o := range l.ops {
			body := w.body(c, o)
			if lg.canonical != nil {
				body = lg.canonical[o.req]
			}
			rc := countResponse(st.workload, body)
			tot.mc += rc.mc
			tot.cached += rc.cached
			tot.cells += rc.cells
			ops++
		}
	}
	if tot.mc > 0 {
		lr.set("soferr.memo_hit_ratio", float64(tot.cached)/float64(tot.mc), tot.mc)
	}
	if st.workload == wlSweep && ops > 0 {
		lr.set("sweep.cells_per_op", float64(tot.cells)/float64(ops), ops)
	}
}

// replayer re-executes requests in-process through the public
// functions the server calls, with a span around each call.
type replayer struct {
	st   *stream
	comp *soferr.Compiler
	rec  *recorder
	sys  map[string]*soferr.System
	// trials and rounds count the Monte-Carlo work the replayed
	// queries ran (uncached estimates only).
	trials, rounds int
	// merged and fallback are adaptive-sampling's compiled systems by
	// class, for the trial-cost benches.
	merged, fallback []*montecarlo.Compiled
	tables           []*trace.MergedExposure
	// segments and cellUS collect cold-specs' merged table sizes and
	// sweep-grid's per-cell sweep times.
	segments, cellUS []float64
}

// warm compiles the working set and runs its warm-up queries, as the
// server's warm-up did, so replayed hot queries hit the memo.
func (rp *replayer) warm(ctx context.Context) error {
	if rp.st.workload == wlCold || rp.st.workload == wlSweep {
		return nil
	}
	for _, phase := range rp.st.warm {
		for _, ri := range phase {
			if err := rp.request(ctx, ri, -1, false); err != nil {
				return err
			}
		}
	}
	rp.rec.spans = rp.rec.spans[:0]
	rp.trials, rp.rounds = 0, 0
	return nil
}

// replay runs the prefix with spans and derives the prefix-exact counts.
func (rp *replayer) replay(ctx context.Context, prefix []int32, lr *layerReport) error {
	for i, ri := range prefix {
		if rp.st.workload == wlSweep {
			if err := rp.sweep(ctx, ri, int32(i), lr); err != nil {
				return err
			}
			continue
		}
		if err := rp.request(ctx, ri, int32(i), true); err != nil {
			return err
		}
	}
	n := float64(len(prefix))
	lr.set("montecarlo.trials_per_op", float64(rp.trials)/n, len(prefix))
	lr.set("montecarlo.rounds_per_op", float64(rp.rounds)/n, len(prefix))
	return nil
}

// countEstimate adds an estimate's trials and adaptive rounds.
func (rp *replayer) countEstimate(e soferr.Estimate) {
	if e.Method != soferr.MonteCarlo || e.Cached || e.Trials == 0 {
		return
	}
	rp.trials += e.Trials
	rp.rounds++
	if e.TargetRelStdErr > 0 && e.Trials > 4096 {
		// Doubling rounds from a first round of 4096 trials.
		rp.rounds += bits.Len(uint(e.Trials/4096)) - 1
	}
}

// decodeStrict decodes a body as the server does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("strict decode: %w", err)
	}
	return nil
}

// Response shapes of the query endpoints (internal/server), for the
// encode stage.
type (
	mttfResponse struct {
		SpecHash        string          `json:"spec_hash"`
		CompileCacheHit bool            `json:"compile_cache_hit"`
		CompileMS       float64         `json:"compile_ms"`
		Estimate        soferr.Estimate `json:"estimate"`
	}
	compareResponse struct {
		SpecHash        string            `json:"spec_hash"`
		CompileCacheHit bool              `json:"compile_cache_hit"`
		CompileMS       float64           `json:"compile_ms"`
		Estimates       []soferr.Estimate `json:"estimates"`
	}
	reliabilityResponse struct {
		SpecHash        string           `json:"spec_hash"`
		CompileCacheHit bool             `json:"compile_cache_hit"`
		TSeconds        soferr.JSONFloat `json:"t_seconds"`
		Reliability     soferr.JSONFloat `json:"reliability"`
	}
	quantileResponse struct {
		SpecHash        string           `json:"spec_hash"`
		CompileCacheHit bool             `json:"compile_cache_hit"`
		P               soferr.JSONFloat `json:"p"`
		TSeconds        soferr.JSONFloat `json:"t_seconds"`
	}
	sweepCellLine struct {
		Cell      soferr.Cell       `json:"cell"`
		Estimates []soferr.Estimate `json:"estimates,omitempty"`
		Error     string            `json:"error,omitempty"`
	}
)

// sink keeps benchmarked results alive.
var sink float64

// request replays one estimate-endpoint request: decode, hash, compile
// on a miss, query, encode. With spans false it only warms state.
func (rp *replayer) request(ctx context.Context, ri, id int32, spans bool) error {
	rq := rp.st.reqs[ri]
	root := int32(-1)
	begin := func(name string) int32 {
		if !spans {
			return -1
		}
		return rp.rec.begin(name, root, id)
	}
	end := func(i int32) {
		if spans {
			rp.rec.end(i)
		}
	}
	root = begin("replay")
	s := begin("server.decode")
	spec, query, err := parseQuery(ctx, rq, rp.countEstimate)
	if err != nil {
		return err
	}
	end(s)
	s = begin("soferr.spec_hash")
	h := spec.Hash()
	end(s)
	sys, ok := rp.sys[h]
	if !ok {
		s = begin("soferr.compile")
		sys, err = rp.comp.Compile(spec)
		end(s)
		if err != nil {
			return fmt.Errorf("replay compile: %w", err)
		}
		if rp.st.workload != wlCold {
			rp.sys[h] = sys
			if rp.st.workload == wlAdaptive {
				if err := rp.classify(spec); err != nil {
					return err
				}
			}
		}
	}
	s = begin("soferr.query")
	resp, err := query(sys)
	end(s)
	if err != nil {
		return fmt.Errorf("replay %s query: %w", rq.kind, err)
	}
	s = begin("server.encode")
	body, err := json.Marshal(resp)
	end(s)
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	sink += float64(len(body))
	end(root)
	if spans && rp.st.workload == wlCold {
		if err := rp.coldLayers(spec, id); err != nil {
			return err
		}
	}
	return nil
}

// mcComponents builds a Spec's Monte-Carlo components (rates per
// second, Count copies superposed) on the replay compiler.
func (rp *replayer) mcComponents(spec soferr.Spec) ([]montecarlo.Component, error) {
	out := make([]montecarlo.Component, len(spec.Components))
	for i, c := range spec.Components {
		tr, err := rp.comp.BuildTrace(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("build trace: %w", err)
		}
		count := max(c.Count, 1)
		out[i] = montecarlo.Component{Rate: units.PerYearToPerSecond(c.RatePerYear * float64(count)), Trace: tr}
	}
	return out, nil
}

// coldLayers times the compile path's layers one call at a time on a
// fresh Spec: validation, the merged hazard table, and the first exact
// MTTF on a freshly compiled Monte-Carlo system.
func (rp *replayer) coldLayers(spec soferr.Spec, id int32) error {
	s := rp.rec.begin("soferr.spec_validate", -1, id)
	err := spec.Validate()
	rp.rec.end(s)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	comps, err := rp.mcComponents(spec)
	if err != nil {
		return err
	}
	rates := make([]float64, len(comps))
	pieces := make([]*trace.Piecewise, len(comps))
	for i, c := range comps {
		rates[i] = c.Rate
		pieces[i], _ = c.Trace.(*trace.Piecewise) // cold traces are all materialized
	}
	s = rp.rec.begin("trace.merge_build", -1, id)
	m, err := trace.NewMergedExposure(rates, pieces, 0)
	rp.rec.end(s)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	rp.segments = append(rp.segments, float64(m.NumSegments()))
	mc, err := montecarlo.Compile(comps)
	if err != nil {
		return fmt.Errorf("montecarlo compile: %w", err)
	}
	s = rp.rec.begin("montecarlo.exact", -1, id)
	v, err := mc.ExactMTTF()
	rp.rec.end(s)
	if err != nil {
		return fmt.Errorf("exact: %w", err)
	}
	sink += v
	return nil
}

// classify sorts an adaptive-sampling system into the merged or
// fallback class for the trial-cost benches.
func (rp *replayer) classify(spec soferr.Spec) error {
	comps, err := rp.mcComponents(spec)
	if err != nil {
		return err
	}
	mc, err := montecarlo.Compile(comps)
	if err != nil {
		return fmt.Errorf("montecarlo compile: %w", err)
	}
	if _, err := mc.ExactMTTF(); err != nil {
		rp.fallback = append(rp.fallback, mc)
		return nil
	}
	rates := make([]float64, len(comps))
	pieces := make([]*trace.Piecewise, len(comps))
	for i, c := range comps {
		rates[i] = c.Rate
		pieces[i], _ = c.Trace.(*trace.Piecewise)
	}
	m, err := trace.NewMergedExposure(rates, pieces, 0)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	rp.merged = append(rp.merged, mc)
	rp.tables = append(rp.tables, m)
	return nil
}

// sweep replays one sweep request: decode, the whole SweepCells run,
// one NDJSON encode per cell; then SoftArch per unique system.
func (rp *replayer) sweep(ctx context.Context, ri, id int32, lr *layerReport) error {
	rq := rp.st.reqs[ri]
	root := rp.rec.begin("replay", -1, id)
	s := rp.rec.begin("server.decode", root, id)
	var req sweepRequest
	err := decodeStrict(rq.body, &req)
	rp.rec.end(s)
	if err != nil {
		return err
	}
	grid := gridFor(rp.comp, req)
	cells, err := grid.Cells()
	if err != nil {
		return fmt.Errorf("grid: %w", err)
	}
	s = rp.rec.begin("soferr.query", root, id)
	ch, err := soferr.SweepCells(ctx, grid.Sources, cells, grid.Methods, sweepOptions(req)...)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	var results []soferr.CellResult
	for res := range ch {
		results = append(results, res)
	}
	rp.rec.end(s)
	rp.cellUS = append(rp.cellUS, float64(rp.rec.spans[s].end-rp.rec.spans[s].start)/1e3/float64(len(results)))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, res := range results {
		if res.Err != nil {
			return fmt.Errorf("sweep cell %d: %w", res.Cell.Index, res.Err)
		}
		for _, e := range res.Estimates {
			rp.countEstimate(e)
		}
		s = rp.rec.begin("sweep.encode_line", root, id)
		err := enc.Encode(sweepCellLine{Cell: res.Cell, Estimates: res.Estimates})
		rp.rec.end(s)
		if err != nil {
			return fmt.Errorf("encode line: %w", err)
		}
	}
	rp.rec.end(root)
	sink += float64(buf.Len())
	if id == 0 {
		return rp.softArch(ctx, req, lr)
	}
	return nil
}

// softArch times System.MTTF(SoftArch) on a fresh System per unique
// (source, rate x count) product of the grid.
func (rp *replayer) softArch(ctx context.Context, req sweepRequest, lr *layerReport) error {
	seen := map[[2]float64]bool{}
	for si, src := range req.Sources {
		tr, err := rp.comp.BuildTrace(src.Trace)
		if err != nil {
			return fmt.Errorf("build source: %w", err)
		}
		for _, rate := range req.RatesPerYear {
			for _, n := range req.Counts {
				key := [2]float64{float64(si), rate * float64(n)}
				if seen[key] {
					continue
				}
				seen[key] = true
				sys, err := soferr.NewSystem([]soferr.Component{{Name: src.Name, RatePerYear: key[1], Trace: tr}})
				if err != nil {
					return fmt.Errorf("softarch system: %w", err)
				}
				s := rp.rec.begin("softarch.query", -1, int32(len(seen)))
				e, err := sys.MTTF(ctx, soferr.SoftArch)
				rp.rec.end(s)
				if err != nil {
					return fmt.Errorf("softarch: %w", err)
				}
				sink += e.MTTF
			}
		}
	}
	lr.set("sweep.systems_per_op", float64(len(seen)), 1)
	return nil
}

// microBenches times the sampling kernel's building blocks on
// adaptive-sampling's working set: fused trials on merged and fallback
// systems, PCG draws, merged-table inversion (scalar and sorted
// blocks), and Welford accumulation.
func microBenches(ctx context.Context, rp *replayer, lr *layerReport) error {
	trialNS := func(cs []*montecarlo.Compiled) ([]float64, error) {
		var out []float64
		for i, c := range cs {
			for rep := uint64(0); rep < 3; rep++ {
				t0 := time.Now()
				res, err := c.MTTF(ctx, montecarlo.Config{Trials: adaptiveRound, Seed: 1000*uint64(i) + rep,
					Workers: 1, Engine: montecarlo.Fused})
				if err != nil {
					return nil, fmt.Errorf("trial bench: %w", err)
				}
				sink += res.MTTF
				out = append(out, float64(time.Since(t0).Nanoseconds())/adaptiveRound)
			}
		}
		return out, nil
	}
	merged, err := trialNS(rp.merged)
	if err != nil {
		return err
	}
	fallback, err := trialNS(rp.fallback)
	if err != nil {
		return err
	}
	lr.setMedian("montecarlo.trial_ns_merged", merged)
	lr.setMedian("montecarlo.trial_ns_fallback", fallback)

	const n = 1 << 18
	reps := func(f func() float64) []float64 {
		var out []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			sink += f()
			out = append(out, float64(time.Since(t0).Nanoseconds())/n)
		}
		return out
	}
	lr.setMedian("xrand.pcg_draw_ns", reps(func() float64 {
		r := xrand.New(7)
		s := 0.0
		for i := 0; i < n; i++ {
			s += r.Float64()
		}
		return s
	}))
	lr.setMedian("numeric.welford_add_ns", reps(func() float64 {
		var w numeric.Welford
		x := 1.0
		for i := 0; i < n; i++ {
			x += 0.5
			w.Add(x)
		}
		return w.Mean()
	}))
	if len(rp.tables) == 0 {
		return nil
	}
	// Hazard targets drawn uniformly over each table's period total.
	rng := rand.New(rand.NewPCG(11, 13))
	hs := make([][]float64, len(rp.tables))
	for t, m := range rp.tables {
		hs[t] = make([]float64, n)
		for i := range hs[t] {
			hs[t][i] = rng.Float64() * m.Total()
		}
	}
	lr.setMedian("trace.invert_ns", reps(func() float64 {
		s := 0.0
		for t, m := range rp.tables {
			for _, h := range hs[t][:n/len(rp.tables)] {
				s += m.Invert(h)
			}
		}
		return s
	}))
	const block = montecarlo.DefaultBatchSize
	sorted := make([][]float64, len(rp.tables))
	for t := range rp.tables {
		sorted[t] = append([]float64(nil), hs[t][:n/len(rp.tables)]...)
		for b := 0; b+block <= len(sorted[t]); b += block {
			sort.Float64s(sorted[t][b : b+block])
		}
	}
	idx := make([]int, block)
	for i := range idx {
		idx[i] = i
	}
	outBuf := make([]float64, block)
	lr.setMedian("trace.invert_sorted_ns", reps(func() float64 {
		s := 0.0
		for t, m := range rp.tables {
			for b := 0; b+block <= len(sorted[t]); b += block {
				m.InvertSortedInto(sorted[t][b:b+block], idx, outBuf)
				s += outBuf[0]
			}
		}
		return s
	}))
	return nil
}

// allocPrefix is how many requests of the timed stream the allocation
// replay serves: enough for several GC cycles on a server-sized heap.
var allocPrefix = map[string]int{
	wlHot:      30000,
	wlCold:     2000,
	wlAdaptive: 60,
	wlSweep:    60,
}

// allocStats is the allocation replay's report.
type allocStats struct {
	Ops       int     `json:"ops"`
	Allocs    float64 `json:"allocs_per_op"`
	KB        float64 `json:"alloc_kb_per_op"`
	GCPerKop  float64 `json:"gc_cycles_per_kop"`
	PauseUSOp float64 `json:"gc_pause_us_per_op"`
}

// allocReplayFlag re-runs this binary as the allocation replay, so the
// replay's heap holds a server's state rather than the load
// generator's.
const allocReplayFlag = "alloc-replay"

// runAllocReplay runs the allocation replay in a child process of this
// binary and reports its figures.
func runAllocReplay(ctx context.Context, cfg config, lr *layerReport) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("alloc replay: %w", err)
	}
	cmd := exec.CommandContext(ctx, self, "-"+allocReplayFlag, "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	cmd.Env = serverEnv()
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("alloc replay: %w", err)
	}
	var st allocStats
	if err := json.Unmarshal(bytes.TrimSpace(outb), &st); err != nil {
		return fmt.Errorf("alloc replay output: %w", err)
	}
	lr.set("go.allocs_per_op", st.Allocs, st.Ops)
	lr.set("go.alloc_kb_per_op", st.KB, st.Ops)
	lr.set("go.gc_cycles_per_kop", st.GCPerKop, st.Ops)
	lr.set("go.gc_pause_us_per_op", st.PauseUSOp, st.Ops)
	return nil
}

// allocReplay serves the stream's warm-up and then a prefix of its
// timed requests through an in-process Server.ServeHTTP, and reports
// allocations and GC work per op over the prefix. The cost of building
// each request and recorder is measured alone and subtracted.
func allocReplay(ctx context.Context, st *stream) (allocStats, error) {
	srv := server.New(server.Config{Compiler: &soferr.Compiler{}})
	var out allocStats
	buf := make([]byte, 0, 1<<20)
	serve := func(ri int32, do bool) int {
		rq := st.reqs[ri]
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, rq.path, bytes.NewReader(rq.body))
		rec := httptest.NewRecorder()
		rec.Body = bytes.NewBuffer(buf[:0])
		if do {
			srv.ServeHTTP(rec, req)
		}
		return rec.Code
	}
	for _, phase := range st.warm {
		for _, ri := range phase {
			if code := serve(ri, true); code != http.StatusOK {
				return out, fmt.Errorf("in-process warm-up: %w %d", errBadStatus, code)
			}
		}
	}
	prefix := st.timed[:min(allocPrefix[st.workload], len(st.timed))]
	measure := func(do bool) (runtime.MemStats, error) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bad := 0
		for _, ri := range prefix {
			if code := serve(ri, do); do && code != http.StatusOK {
				bad++
			}
		}
		runtime.ReadMemStats(&m1)
		if bad > 0 {
			return m1, fmt.Errorf("in-process replay: %w (%d requests)", errBadStatus, bad)
		}
		m1.Mallocs -= m0.Mallocs
		m1.TotalAlloc -= m0.TotalAlloc
		m1.NumGC -= m0.NumGC
		m1.PauseTotalNs -= m0.PauseTotalNs
		return m1, nil
	}
	base, err := measure(false)
	if err != nil {
		return out, err
	}
	m, err := measure(true)
	if err != nil {
		return out, err
	}
	n := float64(len(prefix))
	out.Ops = len(prefix)
	out.Allocs = float64(m.Mallocs-base.Mallocs) / n
	out.KB = float64(m.TotalAlloc-base.TotalAlloc) / 1024 / n
	out.GCPerKop = float64(m.NumGC) * 1000 / n
	out.PauseUSOp = float64(m.PauseTotalNs) / 1e3 / n
	return out, nil
}

// simulateBenchmarks times soferr.SimulateBenchmark once per benchmark
// (and instruction count) the workload's Specs use.
func simulateBenchmarks(st *stream, lr *layerReport) error {
	type sim struct {
		name         string
		instructions int
	}
	used := map[sim]bool{}
	var order []sim
	var visit func(ts soferr.TraceSpec)
	visit = func(ts soferr.TraceSpec) {
		switch ts.Kind {
		case soferr.TraceKindBenchmark:
			s := sim{ts.Benchmark, ts.Instructions}
			if s.instructions == 0 {
				s.instructions = defaultInstructions
			}
			if !used[s] {
				used[s] = true
				order = append(order, s)
			}
		case soferr.TraceKindCombined:
			visit(benchmark("gzip", 0))
			visit(benchmark("swim", 0))
		}
	}
	for _, phase := range st.warm {
		for _, ri := range phase {
			var probe struct {
				Spec    soferr.Spec         `json:"spec"`
				Sources []soferr.SourceSpec `json:"sources"`
			}
			if err := json.Unmarshal(st.reqs[ri].body, &probe); err != nil {
				return fmt.Errorf("decode warm-up request: %w", err)
			}
			for _, c := range probe.Spec.Components {
				visit(c.Trace)
			}
			for _, s := range probe.Sources {
				visit(s.Trace)
			}
		}
	}
	var ms []float64
	for _, s := range order {
		t0 := time.Now()
		if _, err := soferr.SimulateBenchmark(s.name, s.instructions, 1); err != nil {
			return fmt.Errorf("simulate %s: %w", s.name, err)
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	lr.setMedian("turandot.simulate_ms", ms)
	return nil
}
