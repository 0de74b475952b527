// Package server exposes the soferr estimation stack behind a stable
// HTTP query interface: clients POST a declarative system Spec plus
// estimate options and get JSON estimates back, with the expensive
// compile step amortized across requests and users.
//
// Layering (see DESIGN.md, "Serving layer"):
//
//   - soferr.Spec is the wire format: a canonical, hashable system
//     description. Equal Specs hash equal.
//   - A bounded LRU keyed by Spec hash maps each distinct Spec to one
//     compiled *soferr.System, with single-flight compilation. Because
//     a System memoizes its own deterministic and seeded-Monte-Carlo
//     queries, a repeated identical Spec+query is served entirely from
//     cache — bit-identical to recomputation.
//   - The estimate and sweep requests embed soferr.Query, the one
//     definition of a Monte-Carlo query's settings; after the server's
//     clamp it is handed whole to the System, whose memo it keys.
//   - Every query endpoint runs under a server-wide concurrency limit
//     and a per-request deadline carried by one request context.
//
// Endpoints (query = the soferr.Query fields engine, sampler, trials,
// seed, target_rel_stderr, workers):
//
//	POST /v1/mttf        one estimate: {spec, method, query..., timeout_ms}
//	POST /v1/compare     several methods on one compiled system: {spec, methods, query..., timeout_ms}
//	POST /v1/reliability survival probability: {spec, t_seconds, timeout_ms}
//	POST /v1/quantile    failure-time quantile: {spec, p, timeout_ms}
//	POST /v1/sweep       a design-space grid: {sources, rates_per_year, counts, methods, query..., ...},
//	                     whose seed is the grid's base seed; supports cursor/limit
//	                     pagination and ?stream=ndjson streaming (resumable)
//	GET  /healthz        liveness (200 while the process runs)
//	GET  /readyz         readiness (503 once draining; load balancers stop routing here)
//	GET  /metrics        query counts, cache hits, compile time, error classes, recovered panics (JSON)
//
// Errors are structured: {"error": {"status": N, "message": "..."}},
// with machine-readable extras where a client can act on them
// (retry_after_seconds on overload 503s, max_sweep_cells and
// requested_cells on sweep-cap overflows). The failure model — what
// each fault does to in-flight requests — is documented in DESIGN.md,
// "Failure model", and enforced by the chaos test suite.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/faultinject"
	"github.com/soferr/soferr/internal/montecarlo"
)

// Defaults for Config zero values.
const (
	defaultCacheSize  = 128
	defaultMaxTimeout = 60 * time.Second
	maxRequestBytes   = 1 << 20
	// maxRequestTrials caps client-supplied Monte-Carlo trial counts
	// (50x the package default — sub-0.1% standard error — is plenty for
	// any served query; the deadline bounds the time either way).
	maxRequestTrials = 50 * soferr.DefaultTrials
	// maxSweepCells caps the cells one sweep request may evaluate
	// (Config.MaxSweepCells overrides): cell structs are small but the
	// count is the product of client-supplied axes, and every cell is at
	// least one query. Larger grids page through with cursor/limit.
	maxSweepCells = 65536
	// maxSweepEnumFactor bounds the grid a paged sweep may enumerate at
	// all, as a multiple of the per-request cap: cursor pagination must
	// enumerate the full grid (per-cell seeds derive from absolute cell
	// indices) even though it evaluates only a window of it.
	maxSweepEnumFactor = 4
	// defaultRetryAfterSeconds is the Retry-After hint attached to
	// overload 503s (saturated limiter, full compile backlog): long
	// enough for a slot to drain, short enough that clients keep load.
	defaultRetryAfterSeconds = 1
	// minTargetRelStdErr clamps client-supplied adaptive precision
	// targets: trials scale like 1/target^2, so the floor (together
	// with the trials cap, which adaptive runs also respect) bounds the
	// work one request can demand.
	minTargetRelStdErr = 1e-4
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// CacheSize bounds the compiled-System LRU (default 128 systems).
	CacheSize int
	// MaxConcurrent bounds in-flight query requests (default
	// GOMAXPROCS); excess requests wait, and give up with 503 when their
	// context ends first.
	MaxConcurrent int
	// DefaultTrials is the Monte-Carlo trial count for requests that do
	// not set one (default soferr.DefaultTrials).
	DefaultTrials int
	// MaxTimeout caps (and, for requests that set none, supplies) the
	// per-request deadline (default 60s; negative disables).
	MaxTimeout time.Duration
	// MaxSweepCells caps the cells one sweep request may evaluate
	// (default 65536). Grids up to maxSweepEnumFactor times larger may
	// still be swept by paging with cursor/limit.
	MaxSweepCells int
	// Compiler compiles Specs; supply one to share its benchmark
	// simulation cache with other users (default: a fresh Compiler).
	Compiler *soferr.Compiler
	// Log, when non-nil, receives one line per failed request.
	Log io.Writer
}

// Server is the soferr query service: an http.Handler serving the /v1
// endpoints plus health and metrics. Create it with New; it is safe
// for concurrent use. It keeps no long-lived goroutines, but Spec
// compiles run on short-lived background goroutines (bounded in number
// by the compile semaphore and queue) that may briefly outlive a
// timed-out request — after http.Server.Shutdown returns, an in-flight
// compile can still be finishing into the cache.
type Server struct {
	cfg   Config
	comp  *soferr.Compiler
	cache *systemCache
	sem   chan struct{}
	mux   *http.ServeMux
	start time.Time

	queries    [5]atomic.Int64 // indexed by endpoint
	errorCount atomic.Int64
	inflight   atomic.Int64

	// ready is the /readyz state: true from New until BeginDrain. The
	// process stays live (/healthz 200) while draining; only routing
	// readiness flips.
	ready atomic.Bool
	// panics counts handler panics the recovery middleware contained.
	panics atomic.Int64
	// errClasses counts failed requests per endpoint by class:
	// [0]=4xx, [1]=5xx (excluding 504), [2]=timeouts (504).
	errClasses [5][3]atomic.Int64

	// samplerQueries counts answered Monte-Carlo estimates per endpoint,
	// indexed by the sampler that ran them (soferr.PCG or soferr.Sobol;
	// an estimate never names DefaultSampler), so operators can watch
	// QMC adoption per endpoint from /metrics.
	samplerQueries [5][3]atomic.Int64

	// Per-endpoint request-latency summaries (count/sum/max), measured
	// around the whole handler — decode, compile wait, query, encode —
	// so the cache-hit vs cold-compile split (perfbench's hot-queries
	// and cold-specs workloads) is observable in production via /metrics.
	latCount [5]atomic.Int64
	latNs    [5]atomic.Int64
	latMaxNs [5]atomic.Int64
}

// endpoint indexes the per-endpoint query counters.
type endpoint int

const (
	epMTTF endpoint = iota
	epCompare
	epReliability
	epQuantile
	epSweep
)

var endpointNames = [5]string{"mttf", "compare", "reliability", "quantile", "sweep"}

// New builds a Server from the config.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultTrials <= 0 {
		cfg.DefaultTrials = soferr.DefaultTrials
	}
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = defaultMaxTimeout
	}
	comp := cfg.Compiler
	if comp == nil {
		comp = &soferr.Compiler{}
	}
	s := &Server{
		cfg:   cfg,
		comp:  comp,
		cache: newSystemCache(cfg.CacheSize, cfg.MaxConcurrent),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("/v1/mttf", s.query(epMTTF, s.handleMTTF))
	s.mux.HandleFunc("/v1/compare", s.query(epCompare, s.handleCompare))
	s.mux.HandleFunc("/v1/reliability", s.query(epReliability, s.handleReliability))
	s.mux.HandleFunc("/v1/quantile", s.query(epQuantile, s.handleQuantile))
	s.mux.HandleFunc("/v1/sweep", s.query(epSweep, s.handleSweep))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.ready.Store(true)
	return s
}

// ServeHTTP implements http.Handler. It is also the panic-recovery
// middleware: a panic anywhere in a handler — a corrupted trace, an
// injected chaos fault — is contained to that one request (counted,
// logged with its stack) instead of killing the process. Requests that
// had not started their response get a structured 500; mid-stream
// panics abort the connection so the client sees truncation, never a
// clean-looking partial body.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sr := &startedWriter{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			// The handler deliberately aborted the response; net/http
			// handles this quietly. Not ours to contain.
			panic(rec)
		}
		s.panics.Add(1)
		if s.cfg.Log != nil {
			fmt.Fprintf(s.cfg.Log, "panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
		}
		if !sr.started {
			s.writeError(sr, r, http.StatusInternalServerError,
				fmt.Sprintf("internal error: recovered panic: %v", rec))
			return
		}
		panic(http.ErrAbortHandler)
	}()
	s.mux.ServeHTTP(sr, r)
}

// startedWriter records whether the response has begun, so the recovery
// middleware knows whether a structured 500 is still possible. It
// forwards Flush for the NDJSON streaming path.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (sw *startedWriter) WriteHeader(status int) {
	sw.started = true
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *startedWriter) Write(b []byte) (int, error) {
	sw.started = true
	return sw.ResponseWriter.Write(b)
}

func (sw *startedWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// httpError is the structured error envelope every failure returns.
// Beyond status and message it carries machine-readable fields a client
// can act on without parsing prose.
type httpError struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
	// RetryAfterSeconds, when set, mirrors the Retry-After header: the
	// failure is overload, not a bad request — back off and resend.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// MaxSweepCells and RequestedCells are set on sweep-cap overflows so
	// a client can split the grid into cursor/limit pages automatically.
	MaxSweepCells  int64 `json:"max_sweep_cells,omitempty"`
	RequestedCells int64 `json:"requested_cells,omitempty"`
}

// epCtxKey carries the request's endpoint through the context so error
// writes can be classified per endpoint.
type epCtxKey struct{}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	s.writeErrorFull(w, r, httpError{Status: status, Message: msg})
}

func (s *Server) writeErrorFull(w http.ResponseWriter, r *http.Request, he httpError) {
	s.errorCount.Add(1)
	if ep, ok := r.Context().Value(epCtxKey{}).(endpoint); ok {
		switch {
		case he.Status == http.StatusGatewayTimeout:
			s.errClasses[ep][2].Add(1)
		case he.Status >= 500:
			s.errClasses[ep][1].Add(1)
		case he.Status >= 400:
			s.errClasses[ep][0].Add(1)
		}
	}
	// Every overload 503 tells the client when to come back; explicit
	// hints (none yet) would override the default.
	if he.Status == http.StatusServiceUnavailable && he.RetryAfterSeconds == 0 {
		he.RetryAfterSeconds = defaultRetryAfterSeconds
	}
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "%s %s -> %d %s\n", r.Method, r.URL.Path, he.Status, he.Message)
	}
	if he.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(he.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.Status)
	json.NewEncoder(w).Encode(struct {
		Error httpError `json:"error"`
	}{he})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// statusFor maps a query failure to an HTTP status: bad specs and
// options are the client's fault, deadlines are 504, everything else
// is 500. (A system that cannot fail is no longer an error anywhere
// the server queries — MTTF answers 200 with "+Inf" — and
// out-of-domain query settings map to 422 in decode and clamp.)
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, soferr.ErrExactUnavailable):
		// The client asked a closed-form query (the exact engine,
		// SoftArch, reliability, quantile) about a system whose hazard
		// cannot be tabulated (incommensurate periods, over-cap merge,
		// lazy trace mixtures): semantically unanswerable as asked, not
		// a server fault. A fused-engine MTTF query answers it.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// fiHandlerPoint is the chaos injection point inside the query wrapper,
// after the limiter: Delay scripts a slow handler, PanicMsg exercises
// the recovery middleware, Err a structured 500. No-op unless a
// faultinject schedule is armed.
const fiHandlerPoint = "server.handler"

// query wraps a handler with the shared per-request machinery: POST
// enforcement, the concurrency limiter, and the query counter.
func (s *Server) query(ep endpoint, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r = r.WithContext(context.WithValue(r.Context(), epCtxKey{}, ep))
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, r, http.StatusMethodNotAllowed, "POST a JSON request body")
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			s.writeError(w, r, http.StatusServiceUnavailable, "server saturated; request context ended while waiting")
			return
		}
		s.queries[ep].Add(1)
		s.inflight.Add(1)
		start := time.Now()
		defer func() {
			s.inflight.Add(-1)
			s.observeLatency(ep, time.Since(start))
		}()
		if err := faultinject.Fire(fiHandlerPoint); err != nil {
			s.writeError(w, r, http.StatusInternalServerError, err.Error())
			return
		}
		h(w, r)
	}
}

// observeLatency folds one request's wall time into the endpoint's
// count/sum/max summary.
func (s *Server) observeLatency(ep endpoint, d time.Duration) {
	ns := d.Nanoseconds()
	s.latCount[ep].Add(1)
	s.latNs[ep].Add(ns)
	for {
		cur := s.latMaxNs[ep].Load()
		if ns <= cur || s.latMaxNs[ep].CompareAndSwap(cur, ns) {
			return
		}
	}
}

// decode strictly parses the request body into v: unknown fields are
// rejected so typoed options fail loudly instead of silently meaning
// their defaults. Engine and sampler names parse here too (the Query's
// text decoding): an unknown engine is a 400 like any malformed body,
// an unknown sampler a 422, since the body is well-formed JSON and the
// named sampler just does not exist.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, montecarlo.ErrUnknownSampler) {
			status = http.StatusUnprocessableEntity
		}
		s.writeError(w, r, status, fmt.Sprintf("invalid request: %v", err))
		return false
	}
	return true
}

// timeout resolves the effective per-request deadline: the request's
// timeout_ms capped by (or defaulting to) Config.MaxTimeout.
func (s *Server) timeout(requestMS int64) time.Duration {
	d := time.Duration(requestMS) * time.Millisecond
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d < 0 {
		d = 0
	}
	return d
}

// compiled resolves a request's Spec to its compiled System through the
// LRU, waiting at most until ctx ends. cacheHit reports whether the
// hash was already present (compile claimed by an earlier request).
func (s *Server) compiled(ctx context.Context, spec soferr.Spec) (sys *soferr.System, hash string, cacheHit bool, compileNs int64, err error) {
	hash = spec.Hash()
	entry, hit := s.cache.get(hash)
	sys, err = entry.compile(ctx, s.cache, s.comp, spec)
	if err != nil {
		return nil, hash, hit, 0, err
	}
	return sys, hash, hit, entry.compileNs, nil
}

// compileStatus maps a compiled() failure: deadline/cancellation keep
// their query semantics, a full compile backlog is overload (503),
// everything else is a bad spec.
func compileStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return statusFor(err)
	}
	if errors.Is(err, errCompileBacklog) {
		return http.StatusServiceUnavailable
	}
	// A contained compile panic or an injected chaos fault is the
	// server's failure, not the spec's.
	if errors.Is(err, errCompilePanic) || errors.Is(err, faultinject.ErrInjected) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// clamp applies the server's policy to a request's Query: trials
// default to Config.DefaultTrials and are capped at maxRequestTrials
// (compute time; the deadline bounds it too, but keep requests sane),
// workers are clamped to [0, GOMAXPROCS] (goroutines spawned before
// any deadline can fire), and a target outside [0, 1) is a 422
// (well-formed JSON, semantically unanswerable) while one below
// minTargetRelStdErr is clamped up.
func (s *Server) clamp(w http.ResponseWriter, r *http.Request, q *soferr.Query) bool {
	if q.Trials <= 0 {
		q.Trials = s.cfg.DefaultTrials
	}
	q.Trials = min(q.Trials, maxRequestTrials)
	q.Workers = max(0, min(q.Workers, runtime.GOMAXPROCS(0)))
	if t := q.TargetRelStdErr; t != 0 {
		if t < 0 || t >= 1 || math.IsNaN(t) {
			s.writeError(w, r, http.StatusUnprocessableEntity, fmt.Sprintf("target_rel_stderr must be in [0, 1) (got %v)", t))
			return false
		}
		q.TargetRelStdErr = max(t, minTargetRelStdErr)
	}
	return true
}

// countSamplers counts an answer's Monte-Carlo estimates under the
// sampler each one ran, which for a query naming no sampler is the one
// it resolved to.
func (s *Server) countSamplers(ep endpoint, ests ...soferr.Estimate) {
	for _, e := range ests {
		if e.Method == soferr.MonteCarlo {
			s.samplerQueries[ep][e.Sampler].Add(1)
		}
	}
}

type mttfRequest struct {
	Spec   soferr.Spec `json:"spec"`
	Method string      `json:"method,omitempty"`
	soferr.Query
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type mttfResponse struct {
	SpecHash        string          `json:"spec_hash"`
	CompileCacheHit bool            `json:"compile_cache_hit"`
	CompileMS       float64         `json:"compile_ms"`
	Estimate        soferr.Estimate `json:"estimate"`
}

func (s *Server) handleMTTF(w http.ResponseWriter, r *http.Request) {
	var req mttfRequest
	if !s.decode(w, r, &req) {
		return
	}
	methodName := req.Method
	if methodName == "" {
		methodName = "montecarlo"
	}
	method, err := soferr.MethodByName(methodName)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if !s.clamp(w, r, &req.Query) {
		return
	}
	// One deadline governs the whole request — compile wait plus query.
	ctx, cancel := s.queryContext(r, req.TimeoutMS)
	defer cancel()
	sys, hash, hit, compileNs, err := s.compiled(ctx, req.Spec)
	if err != nil {
		s.writeError(w, r, compileStatus(err), err.Error())
		return
	}
	est, err := sys.MTTF(ctx, method, soferr.WithQuery(req.Query))
	if err != nil {
		s.writeError(w, r, statusFor(err), err.Error())
		return
	}
	s.countSamplers(epMTTF, est)
	writeJSON(w, mttfResponse{
		SpecHash:        hash,
		CompileCacheHit: hit,
		CompileMS:       float64(compileNs) / 1e6,
		Estimate:        est,
	})
}

type compareRequest struct {
	Spec    soferr.Spec `json:"spec"`
	Methods []string    `json:"methods,omitempty"`
	soferr.Query
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type compareResponse struct {
	SpecHash        string            `json:"spec_hash"`
	CompileCacheHit bool              `json:"compile_cache_hit"`
	CompileMS       float64           `json:"compile_ms"`
	Estimates       []soferr.Estimate `json:"estimates"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if !s.decode(w, r, &req) {
		return
	}
	methods, err := parseMethods(req.Methods)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if !s.clamp(w, r, &req.Query) {
		return
	}
	// One deadline governs the whole request, so comparing N methods
	// cannot take N deadlines.
	ctx, cancel := s.queryContext(r, req.TimeoutMS)
	defer cancel()
	sys, hash, hit, compileNs, err := s.compiled(ctx, req.Spec)
	if err != nil {
		s.writeError(w, r, compileStatus(err), err.Error())
		return
	}
	ests, err := sys.CompareWith(ctx, []soferr.EstimateOption{soferr.WithQuery(req.Query)}, methods...)
	if err != nil {
		s.writeError(w, r, statusFor(err), err.Error())
		return
	}
	s.countSamplers(epCompare, ests...)
	writeJSON(w, compareResponse{
		SpecHash:        hash,
		CompileCacheHit: hit,
		CompileMS:       float64(compileNs) / 1e6,
		Estimates:       ests,
	})
}

func parseMethods(names []string) ([]soferr.Method, error) {
	if len(names) == 0 {
		return nil, nil // soferr defaults to all three
	}
	out := make([]soferr.Method, len(names))
	for i, n := range names {
		m, err := soferr.MethodByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

type reliabilityRequest struct {
	Spec      soferr.Spec `json:"spec"`
	TSeconds  float64     `json:"t_seconds"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

type reliabilityResponse struct {
	SpecHash        string           `json:"spec_hash"`
	CompileCacheHit bool             `json:"compile_cache_hit"`
	TSeconds        soferr.JSONFloat `json:"t_seconds"`
	Reliability     soferr.JSONFloat `json:"reliability"`
}

func (s *Server) handleReliability(w http.ResponseWriter, r *http.Request) {
	var req reliabilityRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.queryContext(r, req.TimeoutMS)
	defer cancel()
	sys, hash, hit, _, err := s.compiled(ctx, req.Spec)
	if err != nil {
		s.writeError(w, r, compileStatus(err), err.Error())
		return
	}
	rel, err := sys.Reliability(ctx, req.TSeconds)
	if err != nil {
		s.writeError(w, r, queryStatus(err), err.Error())
		return
	}
	writeJSON(w, reliabilityResponse{
		SpecHash:        hash,
		CompileCacheHit: hit,
		TSeconds:        soferr.JSONFloat(req.TSeconds),
		Reliability:     soferr.JSONFloat(rel),
	})
}

type quantileRequest struct {
	Spec      soferr.Spec `json:"spec"`
	P         float64     `json:"p"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

type quantileResponse struct {
	SpecHash        string           `json:"spec_hash"`
	CompileCacheHit bool             `json:"compile_cache_hit"`
	P               soferr.JSONFloat `json:"p"`
	TSeconds        soferr.JSONFloat `json:"t_seconds"`
}

func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request) {
	var req quantileRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.queryContext(r, req.TimeoutMS)
	defer cancel()
	sys, hash, hit, _, err := s.compiled(ctx, req.Spec)
	if err != nil {
		s.writeError(w, r, compileStatus(err), err.Error())
		return
	}
	t, err := sys.FailureQuantile(ctx, req.P)
	if err != nil {
		s.writeError(w, r, queryStatus(err), err.Error())
		return
	}
	writeJSON(w, quantileResponse{
		SpecHash:        hash,
		CompileCacheHit: hit,
		P:               soferr.JSONFloat(req.P),
		TSeconds:        soferr.JSONFloat(t),
	})
}

// queryContext carries the per-request deadline: one context governs
// the whole request, compile wait and query alike.
func (s *Server) queryContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	if d := s.timeout(timeoutMS); d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// queryStatus distinguishes the distribution queries' argument errors
// (an out-of-domain time or probability) from internal failures.
func queryStatus(err error) int {
	if errors.Is(err, soferr.ErrInvalidArgument) {
		return http.StatusBadRequest
	}
	return statusFor(err)
}

type sweepRequest struct {
	Name         string              `json:"name,omitempty"`
	Sources      []soferr.SourceSpec `json:"sources"`
	RatesPerYear []float64           `json:"rates_per_year"`
	Counts       []int               `json:"counts,omitempty"`
	Methods      []string            `json:"methods,omitempty"`
	// Query applies to every cell's Monte-Carlo query, clamped exactly
	// as on the estimate endpoints. Its Seed is the grid's base seed:
	// per-cell streams derive from (seed, cell index).
	soferr.Query
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream selects the response shape: "" for the collected JSON
	// document, "ndjson" for one result line per cell as it completes,
	// terminated by a {"done":true,...} line (its absence means the
	// stream was truncated). The ?stream= query parameter overrides.
	Stream string `json:"stream,omitempty"`
	// Cursor and Limit page through the grid: evaluate up to Limit cells
	// starting at absolute cell index Cursor (0 = from the start,
	// Limit 0 = all remaining). Cells are always enumerated from the
	// full grid so per-cell seeds — functions of the absolute index —
	// are identical whether the grid is swept whole or in pages, and a
	// resumed sweep is bit-identical to the tail of an uninterrupted
	// one. ?cursor= and ?limit= query parameters override.
	Cursor int64 `json:"cursor,omitempty"`
	Limit  int64 `json:"limit,omitempty"`
}

type sweepResponse struct {
	Name  string              `json:"name,omitempty"`
	Cells []soferr.CellResult `json:"cells"`
	Count int                 `json:"count"`
	// Cursor echoes the page's starting cell index; NextCursor, when
	// present, is the cursor that resumes the sweep; Total is the full
	// grid's cell count.
	Cursor     int64 `json:"cursor"`
	NextCursor int64 `json:"next_cursor,omitempty"`
	Total      int64 `json:"total"`
}

// sweepLine is one NDJSON result line. Cell.Index is the absolute grid
// index (resume cursor = last index + 1). Per-cell failures arrive as
// lines with Error set instead of failing the stream.
type sweepLine struct {
	Cell      soferr.Cell       `json:"cell"`
	Estimates []soferr.Estimate `json:"estimates,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// sweepDone is the NDJSON terminator line: a client that never sees it
// knows the stream was cut and resumes from its last index + 1.
type sweepDone struct {
	Done       bool  `json:"done"`
	Cursor     int64 `json:"cursor"`
	Count      int64 `json:"count"`
	NextCursor int64 `json:"next_cursor,omitempty"`
	Total      int64 `json:"total"`
	CellErrors int64 `json:"cell_errors,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	for i, src := range req.Sources {
		if err := src.Trace.Validate(); err != nil {
			s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("source %d: %v", i, err))
			return
		}
	}
	methods, err := parseMethods(req.Methods)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if !s.clamp(w, r, &req.Query) {
		return
	}
	// Query parameters override body paging fields so a client can
	// resume or re-page a sweep without rebuilding the request body.
	if err := overrideSweepParams(r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if req.Stream != "" && req.Stream != "ndjson" {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("unknown stream mode %q (want \"ndjson\")", req.Stream))
		return
	}
	// Cap the cell count before enumerating anything: the axes are
	// client-controlled and a few large axes in a small body would
	// otherwise demand an enormous allocation. Two caps: the grid must
	// be enumerable at all (pagination needs absolute indices, hence a
	// full enumeration), and the cursor/limit window actually evaluated
	// must fit the per-request cap.
	countAxis := len(req.Counts)
	if countAxis == 0 {
		countAxis = 1
	}
	evalCap := int64(s.cfg.MaxSweepCells)
	if evalCap <= 0 {
		evalCap = maxSweepCells
	}
	total := int64(len(req.Sources)) * int64(len(req.RatesPerYear)) * int64(countAxis)
	if total > evalCap*maxSweepEnumFactor {
		s.writeErrorFull(w, r, httpError{
			Status: http.StatusBadRequest,
			Message: fmt.Sprintf("grid of %d cells exceeds the enumerable bound %d; shrink the axes",
				total, evalCap*maxSweepEnumFactor),
			MaxSweepCells:  evalCap,
			RequestedCells: total,
		})
		return
	}
	if req.Cursor < 0 || req.Cursor > total {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("cursor %d outside [0, %d]", req.Cursor, total))
		return
	}
	if req.Limit < 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("limit %d is negative", req.Limit))
		return
	}
	window := total - req.Cursor
	if req.Limit > 0 && req.Limit < window {
		window = req.Limit
	}
	if window > evalCap {
		s.writeErrorFull(w, r, httpError{
			Status: http.StatusBadRequest,
			Message: fmt.Sprintf("sweep of %d cells exceeds the per-request cap %d; page with cursor/limit",
				window, evalCap),
			MaxSweepCells:  evalCap,
			RequestedCells: window,
		})
		return
	}
	grid := soferr.Grid{
		Name:         req.Name,
		Sources:      s.comp.Sources(req.Sources),
		RatesPerYear: req.RatesPerYear,
		Counts:       req.Counts,
		Methods:      methods,
		Seed:         req.Seed,
	}
	// Enumerate the FULL grid, then slice the page: per-cell seeds are
	// derived from absolute cell indices at enumeration time and ride
	// along in Cell.Seed, which is what makes a cursor-resumed page
	// bit-identical to the same cells of an unpaged sweep. Shape errors
	// surface here as clean 400s; errors after this point are runtime
	// failures and map via statusFor.
	cells, err := grid.Cells()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	page := cells[req.Cursor : req.Cursor+window]
	nextCursor := int64(0)
	if end := req.Cursor + window; end < total {
		nextCursor = end
	}
	if len(page) == 0 {
		// cursor == total: an empty page, not a failure (the sweep
		// engine refuses zero cells). A stream cut after its last cell
		// line but before the done line resumes here.
		if req.Stream == "ndjson" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			json.NewEncoder(w).Encode(sweepDone{Done: true, Cursor: req.Cursor, Total: total})
			return
		}
		writeJSON(w, sweepResponse{Name: req.Name, Cells: []soferr.CellResult{}, Cursor: req.Cursor, Total: total})
		return
	}
	ctx, cancel := s.queryContext(r, req.TimeoutMS)
	defer cancel()
	opt := soferr.WithQuery(req.Query)
	if req.Stream == "ndjson" {
		s.streamSweep(ctx, w, r, grid, page, methods, opt, req.Cursor, nextCursor, total)
		return
	}
	results, err := soferr.SweepCellsAll(ctx, grid.Sources, page, methods, nil, opt)
	if err != nil {
		s.writeError(w, r, statusFor(err), err.Error())
		return
	}
	// The engine renumbers cell indices to page positions; restore the
	// absolute grid indices the cursor contract promises.
	for i := range results {
		results[i].Cell.Index = int(req.Cursor) + i
		s.countSamplers(epSweep, results[i].Estimates...)
	}
	writeJSON(w, sweepResponse{
		Name: req.Name, Cells: results, Count: len(results),
		Cursor: req.Cursor, NextCursor: nextCursor, Total: total,
	})
}

// overrideSweepParams applies the ?stream=, ?cursor=, and ?limit= query
// parameters over the body's paging fields.
func overrideSweepParams(r *http.Request, req *sweepRequest) error {
	q := r.URL.Query()
	if v := q.Get("stream"); v != "" {
		req.Stream = v
	}
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"cursor", &req.Cursor}, {"limit", &req.Limit}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("invalid %s parameter %q", p.name, v)
			}
			*p.dst = n
		}
	}
	return nil
}

// streamSweep writes the page as NDJSON: one sweepLine per cell as it
// completes (in cell order, per-cell errors as Error lines), then the
// sweepDone terminator. Once the first line is out the status is
// committed; later failures surface as a truncated stream — no done
// line — which clients treat as "resume from last index + 1".
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, r *http.Request,
	grid soferr.Grid, page []soferr.Cell, methods []soferr.Method, opt soferr.EstimateOption,
	cursor, nextCursor, total int64) {
	ch, err := soferr.SweepCells(ctx, grid.Sources, page, methods, opt)
	if err != nil {
		s.writeError(w, r, statusFor(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.writeSweepLines(w, ch, len(page), cursor, nextCursor, total)
}

// writeSweepLines writes one NDJSON line per result received on ch,
// then, once a line is out for each of the page's cells, the sweepDone
// terminator. Each line is one Write from a reused buffer. The writer
// flushes only when the next result is not ready yet, and after the
// terminator: a finished line never waits on computation, and lines
// that finish back to back share network writes.
func (s *Server) writeSweepLines(w http.ResponseWriter, ch <-chan soferr.CellResult, cells int,
	cursor, nextCursor, total int64) {
	flusher, _ := w.(http.Flusher)
	var (
		buf                   []byte
		unflushed             bool
		delivered, cellErrors int64
	)
	for {
		var (
			res soferr.CellResult
			ok  bool
		)
		select {
		case res, ok = <-ch:
		default:
			if unflushed && flusher != nil {
				flusher.Flush()
				unflushed = false
			}
			res, ok = <-ch
		}
		if !ok {
			break
		}
		line := sweepLine{Cell: res.Cell, Estimates: res.Estimates}
		line.Cell.Index = int(cursor) + res.Cell.Index
		if res.Err != nil {
			line.Error = res.Err.Error()
			line.Estimates = nil
			cellErrors++
		}
		s.countSamplers(epSweep, line.Estimates...)
		var err error
		if buf, err = appendSweepLine(buf[:0], line); err != nil {
			return // a truncated stream, as when the write fails
		}
		if _, err := w.Write(buf); err != nil {
			// The client went away; drain via context cancellation is the
			// caller's job — just stop writing.
			return
		}
		unflushed = true
		delivered++
	}
	if delivered < int64(cells) {
		// The context ended before the page finished: ending without the
		// done line IS the truncation signal.
		return
	}
	json.NewEncoder(w).Encode(sweepDone{
		Done: true, Cursor: cursor, Count: delivered,
		NextCursor: nextCursor, Total: total, CellErrors: cellErrors,
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// appendSweepLine appends line's NDJSON encoding to b: the bytes
// json.NewEncoder(w).Encode(line) writes, newline included. It joins
// json.Marshal of the cell with each estimate's own MarshalJSON, so
// encoding/json never re-scans the estimates' output.
func appendSweepLine(b []byte, line sweepLine) ([]byte, error) {
	cell, err := json.Marshal(line.Cell)
	if err != nil {
		return b, err
	}
	b = append(b, `{"cell":`...)
	b = append(b, cell...)
	if len(line.Estimates) > 0 {
		b = append(b, `,"estimates":[`...)
		for i, est := range line.Estimates {
			if i > 0 {
				b = append(b, ',')
			}
			enc, err := est.MarshalJSON()
			if err != nil {
				return b, err
			}
			b = append(b, enc...)
		}
		b = append(b, ']')
	}
	if line.Error != "" {
		msg, err := json.Marshal(line.Error)
		if err != nil {
			return b, err
		}
		b = append(b, `,"error":`...)
		b = append(b, msg...)
	}
	return append(b, "}\n"...), nil
}

// handleHealthz is pure liveness: 200 for as long as the process can
// answer at all, including while draining. Orchestrators use it to
// decide whether to restart the process, not whether to route to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{"ok", time.Since(s.start).Seconds()})
}

// BeginDrain flips /readyz to 503 without touching in-flight work: load
// balancers stop routing new requests here while existing ones finish.
// Call it before http.Server.Shutdown so the readiness flip propagates
// ahead of the listener closing.
func (s *Server) BeginDrain() { s.ready.Store(false) }

// handleReadyz is routing readiness: 200 while accepting new work, 503
// (with Retry-After) once BeginDrain has been called. Deliberately not
// routed through writeError — drain-time readiness probes are expected
// traffic, not failures to count.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readyz struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if !s.ready.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(defaultRetryAfterSeconds))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(readyz{"draining", time.Since(s.start).Seconds()})
		return
	}
	writeJSON(w, readyz{"ready", time.Since(s.start).Seconds()})
}

// Metrics is the /metrics document (also returned by the method for
// tests and embedding).
type Metrics struct {
	Queries map[string]int64 `json:"queries"`
	// Latency carries per-endpoint request-latency summaries: requests
	// completed, total and max wall milliseconds (mean = total/count).
	Latency  map[string]LatencySummary `json:"latency"`
	Errors   int64                     `json:"errors"`
	Inflight int64                     `json:"inflight"`
	// ErrorClasses splits each endpoint's failures into client errors,
	// server errors, and timeouts, so an operator can tell overload and
	// bugs apart from bad requests at a glance.
	ErrorClasses map[string]ErrorClassCounts `json:"error_classes"`
	// Samplers counts each estimate endpoint's answered Monte-Carlo
	// estimates (one per sweep cell) by the sampler that ran them, so
	// PCG-vs-Sobol adoption is observable per endpoint; a query that
	// names no sampler counts under the one it resolved to. Endpoints
	// that never run Monte-Carlo (reliability, quantile) are omitted.
	Samplers map[string]SamplerCounts `json:"samplers"`
	// PanicsRecovered counts handler panics the recovery middleware
	// contained; any nonzero value is a bug worth chasing, but a bug
	// that did not take the process down.
	PanicsRecovered int64 `json:"panics_recovered"`
	// FaultInjection reports per-point hit/fired counts while a chaos
	// schedule is armed (absent in production, where nothing is armed).
	FaultInjection map[string]faultinject.PointStats `json:"fault_injection,omitempty"`
	Cache          struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Size      int   `json:"size"`
		Capacity  int   `json:"capacity"`
	} `json:"compile_cache"`
	Compiles       int64   `json:"compiles"`
	CompileMSTotal float64 `json:"compile_ms_total"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// LatencySummary is one endpoint's request-latency summary.
type LatencySummary struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// ErrorClassCounts is one endpoint's failed requests by class. C4xx is
// the client's fault, C5xx the server's (excluding deadlines), and
// Timeouts the per-request deadline expiries (504).
type ErrorClassCounts struct {
	C4xx     int64 `json:"4xx"`
	C5xx     int64 `json:"5xx"`
	Timeouts int64 `json:"timeouts"`
}

// SamplerCounts is one estimate endpoint's Monte-Carlo estimates by the
// sampler that ran them.
type SamplerCounts struct {
	PCG   int64 `json:"pcg"`
	Sobol int64 `json:"sobol"`
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	var m Metrics
	m.Queries = make(map[string]int64, len(endpointNames))
	m.Latency = make(map[string]LatencySummary, len(endpointNames))
	for i, name := range endpointNames {
		m.Queries[name] = s.queries[i].Load()
		m.Latency[name] = LatencySummary{
			Count:   s.latCount[i].Load(),
			TotalMS: float64(s.latNs[i].Load()) / 1e6,
			MaxMS:   float64(s.latMaxNs[i].Load()) / 1e6,
		}
	}
	m.ErrorClasses = make(map[string]ErrorClassCounts, len(endpointNames))
	for i, name := range endpointNames {
		m.ErrorClasses[name] = ErrorClassCounts{
			C4xx:     s.errClasses[i][0].Load(),
			C5xx:     s.errClasses[i][1].Load(),
			Timeouts: s.errClasses[i][2].Load(),
		}
	}
	m.Samplers = make(map[string]SamplerCounts, 3)
	for _, ep := range []endpoint{epMTTF, epCompare, epSweep} {
		m.Samplers[endpointNames[ep]] = SamplerCounts{
			PCG:   s.samplerQueries[ep][soferr.PCG].Load(),
			Sobol: s.samplerQueries[ep][soferr.Sobol].Load(),
		}
	}
	m.PanicsRecovered = s.panics.Load()
	m.FaultInjection = faultinject.Snapshot()
	m.Errors = s.errorCount.Load()
	m.Inflight = s.inflight.Load()
	hits, misses, evictions, size, capacity := s.cache.stats()
	m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions = hits, misses, evictions
	m.Cache.Size, m.Cache.Capacity = size, capacity
	m.Compiles = s.cache.compiles.Load()
	m.CompileMSTotal = float64(s.cache.compileNs.Load()) / 1e6
	m.UptimeSeconds = time.Since(s.start).Seconds()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Metrics())
}
