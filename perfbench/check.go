package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/soferr/soferr"
)

var (
	errMismatch   = errors.New("response differs from the in-process reference")
	errCacheFlag  = errors.New("unexpected cache flag")
	errEngine     = errors.New("unexpected engine")
	errPrecision  = errors.New("adaptive estimate misses its precision target")
	errOutOfBand  = errors.New("estimate outside its reference band")
	errUnknownRef = errors.New("no reference for this request")
	errStream     = errors.New("malformed NDJSON sweep stream")
)

// adaptiveSigmas is how many combined standard errors an adaptive
// estimate may sit from its reference. At 6 sigma a correct engine
// fails one request in ~5e8, so a run of thousands never does.
const adaptiveSigmas = 6

// adaptiveRefTrials is the fixed trial count of the reference for
// systems the Exact engine refuses (se ~0.2 of a 16384-trial estimate's).
const adaptiveRefTrials = 400000

// coldRelTol is cold-specs' tolerance between the served exact MTTF and
// the in-process one.
const coldRelTol = 1e-9

// queryResponse decodes every estimate endpoint's response shape.
type queryResponse struct {
	SpecHash        string            `json:"spec_hash"`
	CompileCacheHit bool              `json:"compile_cache_hit"`
	Estimate        *soferr.Estimate  `json:"estimate"`
	Estimates       []soferr.Estimate `json:"estimates"`
	Reliability     soferr.JSONFloat  `json:"reliability"`
	TSeconds        soferr.JSONFloat  `json:"t_seconds"`
}

// sweepLine is one NDJSON line of a streamed sweep: a cell result or,
// last, the done terminator.
type sweepLine struct {
	Cell       *soferr.Cell      `json:"cell"`
	Estimates  []soferr.Estimate `json:"estimates"`
	Error      string            `json:"error"`
	Done       bool              `json:"done"`
	Count      int64             `json:"count"`
	CellErrors int64             `json:"cell_errors"`
}

// refs holds what a workload's responses are checked against, computed
// in-process from the same request bodies (a Spec compiled with the
// server's default Compiler settings, queried with the server's
// options).
type refs struct {
	st   *stream
	comp *soferr.Compiler
	mu   sync.Mutex
	sys  map[string]*soferr.System // by Spec hash

	hot      map[int32]queryResponse // by request index
	adaptive map[string][2]float64   // Spec hash -> (MTTF, stderr)
	sweep    [][]float64             // cell -> MTTF per method
}

// queryOptions mirrors the server's lowering of the estimate options
// (internal/server): default trials, PCG sampler, 60 s time limit.
func queryOptions(o estimateOptions) []soferr.EstimateOption {
	trials := o.Trials
	if trials <= 0 {
		trials = soferr.DefaultTrials
	}
	opts := []soferr.EstimateOption{
		soferr.WithTrials(trials), soferr.WithSeed(o.Seed), soferr.WithWorkers(o.Workers),
		soferr.WithSampler(soferr.PCG),
	}
	if o.Engine != "" {
		if e, err := soferr.EngineByName(o.Engine); err == nil {
			opts = append(opts, soferr.WithEngine(e))
		}
	}
	if o.TargetRelStdErr != 0 {
		opts = append(opts, soferr.WithTargetRelStdErr(o.TargetRelStdErr))
	}
	return append(opts, soferr.WithTimeLimit(defaultTimeLimit))
}

// system compiles (once per hash) a Spec in-process.
func (r *refs) system(spec soferr.Spec) (*soferr.System, error) {
	h := spec.Hash()
	r.mu.Lock()
	sys, ok := r.sys[h]
	r.mu.Unlock()
	if ok {
		return sys, nil
	}
	sys, err := r.comp.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	if r.st.workload != wlCold { // cold Specs are never seen twice
		r.mu.Lock()
		r.sys[h] = sys
		r.mu.Unlock()
	}
	return sys, nil
}

// newRefs computes the references a workload needs before any timing
// (cold-specs' per-request references are computed at check time).
func newRefs(ctx context.Context, st *stream) (*refs, error) {
	r := &refs{st: st, comp: &soferr.Compiler{}, sys: map[string]*soferr.System{}}
	switch st.workload {
	case wlHot:
		r.hot = map[int32]queryResponse{}
		for _, ri := range st.warm[0] {
			want, err := r.answer(ctx, st.reqs[ri])
			if err != nil {
				return nil, err
			}
			r.hot[ri] = want
		}
	case wlAdaptive:
		r.adaptive = map[string][2]float64{}
		for _, ri := range st.warm[0] {
			var req mttfRequest
			if err := json.Unmarshal(st.reqs[ri].body, &req); err != nil {
				return nil, fmt.Errorf("decode adaptive request: %w", err)
			}
			h := req.Spec.Hash()
			if _, ok := r.adaptive[h]; ok {
				continue
			}
			sys, err := r.system(req.Spec)
			if err != nil {
				return nil, err
			}
			est, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
			if errors.Is(err, soferr.ErrExactUnavailable) {
				est, err = sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithEngine(soferr.Fused),
					soferr.WithTrials(adaptiveRefTrials), soferr.WithSeed(0x5eed), soferr.WithWorkers(conns))
			}
			if err != nil {
				return nil, fmt.Errorf("adaptive reference: %w", err)
			}
			r.adaptive[h] = [2]float64{est.MTTF, est.StdErr}
		}
	case wlSweep:
		var req sweepRequest
		if err := json.Unmarshal(st.reqs[st.warm[0][0]].body, &req); err != nil {
			return nil, fmt.Errorf("decode sweep request: %w", err)
		}
		res, err := soferr.Sweep(ctx, gridFor(r.comp, req), sweepOptions(req)...)
		if err != nil {
			return nil, fmt.Errorf("sweep reference: %w", err)
		}
		for _, c := range res {
			var mttfs []float64
			for _, e := range c.Estimates {
				mttfs = append(mttfs, e.MTTF)
			}
			r.sweep = append(r.sweep, mttfs)
		}
	}
	return r, nil
}

// gridFor builds a sweep request's grid on a compiler.
func gridFor(comp *soferr.Compiler, req sweepRequest) soferr.Grid {
	methods := make([]soferr.Method, len(req.Methods))
	for i, m := range req.Methods {
		methods[i], _ = soferr.MethodByName(m) // generated names are valid
	}
	return soferr.Grid{Name: req.Name, Sources: comp.Sources(req.Sources),
		RatesPerYear: req.RatesPerYear, Counts: req.Counts, Methods: methods, Seed: req.Seed}
}

// sweepOptions mirrors the server's sweep options (no per-query time
// limit; the request deadline covers the whole sweep).
func sweepOptions(req sweepRequest) []soferr.EstimateOption {
	opts := queryOptions(estimateOptions{Trials: req.Trials, Engine: req.Engine,
		TargetRelStdErr: req.TargetRelStdErr, Workers: req.Workers})
	return opts[:len(opts)-1]
}

// parseQuery decodes an estimate-endpoint request strictly, as the
// server does, and returns its Spec and a query that answers it on a
// compiled System in the endpoint's response shape. onEstimate sees
// every estimate the query returns.
func parseQuery(ctx context.Context, rq request, onEstimate func(soferr.Estimate)) (soferr.Spec, func(*soferr.System) (any, error), error) {
	methods := func(names []string) []soferr.Method {
		out := make([]soferr.Method, len(names))
		for i, m := range names {
			out[i], _ = soferr.MethodByName(m) // generated names are valid
		}
		return out
	}
	switch rq.path {
	case pathMTTF:
		var req mttfRequest
		if err := decodeStrict(rq.body, &req); err != nil {
			return req.Spec, nil, err
		}
		return req.Spec, func(sys *soferr.System) (any, error) {
			est, err := sys.MTTF(ctx, soferr.MonteCarlo, queryOptions(req.estimateOptions)...)
			onEstimate(est)
			return mttfResponse{Estimate: est}, err
		}, nil
	case pathCompare:
		var req compareRequest
		if err := decodeStrict(rq.body, &req); err != nil {
			return req.Spec, nil, err
		}
		return req.Spec, func(sys *soferr.System) (any, error) {
			ests, err := sys.CompareWith(ctx, queryOptions(req.estimateOptions), methods(req.Methods)...)
			for _, e := range ests {
				onEstimate(e)
			}
			return compareResponse{Estimates: ests}, err
		}, nil
	case pathReliability:
		var req reliabilityRequest
		if err := decodeStrict(rq.body, &req); err != nil {
			return req.Spec, nil, err
		}
		return req.Spec, func(sys *soferr.System) (any, error) {
			qctx, cancel := context.WithTimeout(ctx, defaultTimeLimit)
			defer cancel()
			v, err := sys.Reliability(qctx, req.TSeconds)
			return reliabilityResponse{TSeconds: soferr.JSONFloat(req.TSeconds), Reliability: soferr.JSONFloat(v)}, err
		}, nil
	case pathQuantile:
		var req quantileRequest
		if err := decodeStrict(rq.body, &req); err != nil {
			return req.Spec, nil, err
		}
		return req.Spec, func(sys *soferr.System) (any, error) {
			qctx, cancel := context.WithTimeout(ctx, defaultTimeLimit)
			defer cancel()
			v, err := sys.FailureQuantile(qctx, req.P)
			return quantileResponse{P: soferr.JSONFloat(req.P), TSeconds: soferr.JSONFloat(v)}, err
		}, nil
	}
	return soferr.Spec{}, nil, fmt.Errorf("%w: %s", errUnknownRef, rq.path)
}

// answer computes a hot or cold request's expected response values.
func (r *refs) answer(ctx context.Context, rq request) (queryResponse, error) {
	var out queryResponse
	spec, query, err := parseQuery(ctx, rq, func(soferr.Estimate) {})
	if err != nil {
		return out, err
	}
	sys, err := r.system(spec)
	if err != nil {
		return out, err
	}
	resp, err := query(sys)
	if err != nil {
		return out, fmt.Errorf("reference %s query: %w", rq.kind, err)
	}
	// Read the answer back through the same decoding as the server's.
	data, err := json.Marshal(resp)
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	if err != nil {
		return out, fmt.Errorf("reference %s response: %w", rq.kind, err)
	}
	out.SpecHash = spec.Hash()
	return out, nil
}

// sameFloat is bit-level equality up to NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// sameEstimate compares every field but Cached.
func sameEstimate(got, want soferr.Estimate) bool {
	return got.Method == want.Method && sameFloat(got.MTTF, want.MTTF) && sameFloat(got.FIT, want.FIT) &&
		sameFloat(got.StdErr, want.StdErr) && got.Trials == want.Trials && got.Seed == want.Seed &&
		got.Engine == want.Engine && got.Sampler == want.Sampler &&
		sameFloat(got.TargetRelStdErr, want.TargetRelStdErr)
}

// check validates one response body. hit reports whether the request
// is past its warm-up (cache flags are then checked too).
func (r *refs) check(ctx context.Context, ri int32, body []byte, hit bool) error {
	rq := r.st.reqs[ri]
	if r.st.workload == wlSweep {
		return r.checkSweep(body)
	}
	var got queryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%w: %v", errMismatch, err)
	}
	switch r.st.workload {
	case wlHot:
		return r.checkHot(ri, got, hit)
	case wlCold:
		if got.CompileCacheHit {
			return fmt.Errorf("%w: compile_cache_hit on a fresh spec", errCacheFlag)
		}
		want, err := r.answer(ctx, rq)
		if err != nil {
			return err
		}
		if got.Estimate == nil || got.Estimate.Engine != soferr.Exact {
			return errEngine
		}
		if math.Abs(got.Estimate.MTTF-want.Estimate.MTTF) > coldRelTol*math.Abs(want.Estimate.MTTF) {
			return fmt.Errorf("%w: mttf %v, want %v", errMismatch, got.Estimate.MTTF, want.Estimate.MTTF)
		}
		return nil
	case wlAdaptive:
		ref, ok := r.adaptive[got.SpecHash]
		if !ok {
			return errUnknownRef
		}
		e := got.Estimate
		if e == nil || e.Engine != soferr.Fused {
			return errEngine
		}
		if !(e.StdErr <= adaptiveTarget*e.MTTF) {
			return fmt.Errorf("%w: stderr %v of %v", errPrecision, e.StdErr, e.MTTF)
		}
		band := adaptiveSigmas * math.Hypot(e.StdErr, ref[1])
		if !(math.Abs(e.MTTF-ref[0]) <= band) {
			return fmt.Errorf("%w: %v vs %v +- %v", errOutOfBand, e.MTTF, ref[0], band)
		}
		return nil
	}
	return nil
}

// checkHot compares a hot-queries response to its reference.
func (r *refs) checkHot(ri int32, got queryResponse, hit bool) error {
	want, ok := r.hot[ri]
	if !ok {
		return errUnknownRef
	}
	if got.SpecHash != want.SpecHash {
		return fmt.Errorf("%w: spec hash", errMismatch)
	}
	if hit && !got.CompileCacheHit {
		return fmt.Errorf("%w: compile_cache_hit false after warm-up", errCacheFlag)
	}
	var gotE, wantE []soferr.Estimate
	if want.Estimate != nil {
		if got.Estimate == nil {
			return fmt.Errorf("%w: no estimate", errMismatch)
		}
		gotE, wantE = []soferr.Estimate{*got.Estimate}, []soferr.Estimate{*want.Estimate}
	} else {
		gotE, wantE = got.Estimates, want.Estimates
	}
	if len(gotE) != len(wantE) {
		return fmt.Errorf("%w: %d estimates, want %d", errMismatch, len(gotE), len(wantE))
	}
	for i := range gotE {
		if !sameEstimate(gotE[i], wantE[i]) {
			return fmt.Errorf("%w: estimate %d %+v, want %+v", errMismatch, i, gotE[i], wantE[i])
		}
		if hit && gotE[i].Method == soferr.MonteCarlo && !gotE[i].Cached {
			return fmt.Errorf("%w: cached false after warm-up", errCacheFlag)
		}
	}
	if !sameFloat(float64(got.Reliability), float64(want.Reliability)) ||
		!sameFloat(float64(got.TSeconds), float64(want.TSeconds)) {
		return fmt.Errorf("%w: distribution query", errMismatch)
	}
	return nil
}

// parseSweep validates a streamed sweep's framing (cells in index
// order without errors, then the done line) and returns the cell count.
func parseSweep(body []byte, visit func(i int, l sweepLine) error) (int, error) {
	cells := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	done := false
	for sc.Scan() {
		if done {
			return cells, fmt.Errorf("%w: line after done", errStream)
		}
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return cells, fmt.Errorf("%w: %v", errStream, err)
		}
		if l.Done {
			if l.Count != int64(cells) || l.CellErrors != 0 {
				return cells, fmt.Errorf("%w: done line counts %d cells, %d errors", errStream, l.Count, l.CellErrors)
			}
			done = true
			continue
		}
		if l.Cell == nil || l.Cell.Index != cells || l.Error != "" {
			return cells, fmt.Errorf("%w: cell %d out of order or failed", errStream, cells)
		}
		if err := visit(cells, l); err != nil {
			return cells, err
		}
		cells++
	}
	if err := sc.Err(); err != nil {
		return cells, fmt.Errorf("%w: %v", errStream, err)
	}
	if !done {
		return cells, fmt.Errorf("%w: no done line", errStream)
	}
	return cells, nil
}

// checkSweep validates a sweep response against the reference grid.
func (r *refs) checkSweep(body []byte) error {
	cells, err := parseSweep(body, func(i int, l sweepLine) error {
		if i >= len(r.sweep) || len(l.Estimates) != len(r.sweep[i]) {
			return fmt.Errorf("%w: cell %d shape", errMismatch, i)
		}
		for j, e := range l.Estimates {
			if e.Method == soferr.MonteCarlo && e.Engine != soferr.Exact {
				return fmt.Errorf("%w: cell %d answered by %v", errEngine, i, e.Engine)
			}
			if !sameFloat(e.MTTF, r.sweep[i][j]) {
				return fmt.Errorf("%w: cell %d method %v", errMismatch, i, e.Method)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if cells != len(r.sweep) {
		return fmt.Errorf("%w: %d cells, want %d", errStream, cells, len(r.sweep))
	}
	return nil
}
