package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/faultinject"
	"github.com/soferr/soferr/internal/flight"
)

func testSpec(rate float64) soferr.Spec {
	return soferr.Spec{
		Name: "batch",
		Components: []soferr.ComponentSpec{{
			Name:        "cache",
			RatePerYear: rate,
			Trace:       soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 4},
		}},
	}
}

func post(t *testing.T, client *http.Client, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func mustUnmarshal(t *testing.T, data []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

// TestServedEstimateBitIdenticalToDirectQuery is the acceptance test:
// an estimate served over HTTP must equal a direct System.MTTF query at
// the same (trials, seed, engine) bit for bit, and a repeated identical
// Spec+query must be a cache hit at both layers (compiled-System LRU
// and the System's own query cache).
func TestServedEstimateBitIdenticalToDirectQuery(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	spec := testSpec(1e6)
	req := map[string]interface{}{
		"spec":   spec,
		"method": "montecarlo",
		"trials": 5000,
		"seed":   3,
		"engine": "fused",
	}
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got mttfResponse
	mustUnmarshal(t, body, &got)

	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithTrials(5000), soferr.WithSeed(3), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate.MTTF != want.MTTF || got.Estimate.StdErr != want.StdErr ||
		got.Estimate.Trials != want.Trials || got.Estimate.Seed != want.Seed ||
		got.Estimate.Engine != want.Engine || got.Estimate.Method != want.Method {
		t.Errorf("served estimate differs from direct query:\n http   %+v\n direct %+v", got.Estimate, want)
	}
	if got.SpecHash != spec.Hash() {
		t.Errorf("spec_hash = %q, want %q", got.SpecHash, spec.Hash())
	}
	if got.CompileCacheHit {
		t.Error("first request reported a compile cache hit")
	}
	if got.Estimate.Cached {
		t.Error("first query reported a query-cache hit")
	}

	// The identical request again: compile cache hit, query cache hit,
	// same bits.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var again mttfResponse
	mustUnmarshal(t, body, &again)
	if !again.CompileCacheHit {
		t.Error("repeated spec did not hit the compile cache")
	}
	if !again.Estimate.Cached {
		t.Error("repeated query did not hit the query cache")
	}
	if again.Estimate.MTTF != got.Estimate.MTTF || again.Estimate.StdErr != got.Estimate.StdErr {
		t.Errorf("cached answer differs: %+v vs %+v", again.Estimate, got.Estimate)
	}
}

func TestCompareEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	spec := testSpec(1e6)
	resp, body := post(t, srv.Client(), srv.URL+"/v1/compare", map[string]interface{}{
		"spec":    spec,
		"methods": []string{"AVF+SOFR", "MC", "softarch"}, // case-insensitive, aliased
		"trials":  2000,
		"seed":    1,
		"engine":  "Fused",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got compareResponse
	mustUnmarshal(t, body, &got)
	if len(got.Estimates) != 3 {
		t.Fatalf("got %d estimates", len(got.Estimates))
	}
	wantMethods := []soferr.Method{soferr.AVFSOFR, soferr.MonteCarlo, soferr.SoftArch}
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.CompareWith(context.Background(), []soferr.EstimateOption{
		soferr.WithTrials(2000), soferr.WithSeed(1), soferr.WithEngine(soferr.Fused),
	}, wantMethods...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Estimates {
		if got.Estimates[i].Method != wantMethods[i] {
			t.Errorf("estimate %d method %v, want %v", i, got.Estimates[i].Method, wantMethods[i])
		}
		if got.Estimates[i].MTTF != direct[i].MTTF {
			t.Errorf("method %v MTTF %v != direct %v", wantMethods[i], got.Estimates[i].MTTF, direct[i].MTTF)
		}
	}
}

func TestDistributionEndpoints(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	spec := testSpec(1e6)
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, srv.Client(), srv.URL+"/v1/reliability", map[string]interface{}{
		"spec": spec, "t_seconds": 86400.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reliability status %d: %s", resp.StatusCode, body)
	}
	var rel reliabilityResponse
	mustUnmarshal(t, body, &rel)
	wantRel, err := sys.Reliability(context.Background(), 86400)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rel.Reliability) != wantRel {
		t.Errorf("served reliability %v != direct %v", rel.Reliability, wantRel)
	}

	resp, body = post(t, srv.Client(), srv.URL+"/v1/quantile", map[string]interface{}{
		"spec": spec, "p": 0.5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantile status %d: %s", resp.StatusCode, body)
	}
	var q quantileResponse
	mustUnmarshal(t, body, &q)
	wantT, err := sys.FailureQuantile(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if float64(q.TSeconds) != wantT {
		t.Errorf("served quantile %v != direct %v", q.TSeconds, wantT)
	}

	// p = 1 is +Inf and must survive the JSON boundary.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/quantile", map[string]interface{}{
		"spec": spec, "p": 1.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantile(1) status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &q)
	if !math.IsInf(float64(q.TSeconds), 1) {
		t.Errorf("quantile(1) = %v, want +Inf", q.TSeconds)
	}

	// Invalid probability is the client's fault.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/quantile", map[string]interface{}{
		"spec": spec, "p": 1.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("quantile(1.5) status %d: %s", resp.StatusCode, body)
	}
}

// TestSweepEndpointMatchesDirectSweep asserts the served sweep is the
// same sweep the library runs: equal cells, equal estimates, bit for
// bit.
func TestSweepEndpointMatchesDirectSweep(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	req := map[string]interface{}{
		"name": "grid",
		"sources": []map[string]interface{}{
			{"name": "half", "trace": map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 5}},
			{"name": "tenth", "trace": map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 1}},
		},
		"rates_per_year": []float64{1e4, 1e6},
		"counts":         []int{1, 16},
		"methods":        []string{"avf+sofr", "montecarlo"},
		"seed":           5,
		"trials":         2000,
		"engine":         "fused",
	}
	resp, body := post(t, srv.Client(), srv.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got sweepResponse
	mustUnmarshal(t, body, &got)
	if got.Count != 8 || len(got.Cells) != 8 {
		t.Fatalf("got %d cells, want 8", got.Count)
	}

	half, err := soferr.BusyIdleTrace(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	tenth, err := soferr.BusyIdleTrace(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := soferr.Sweep(context.Background(), soferr.Grid{
		Name: "grid",
		Sources: []soferr.TraceSource{
			{Name: "half", Trace: half}, {Name: "tenth", Trace: tenth},
		},
		RatesPerYear: []float64{1e4, 1e6},
		Counts:       []int{1, 16},
		Methods:      []soferr.Method{soferr.AVFSOFR, soferr.MonteCarlo},
		Seed:         5,
	}, soferr.WithTrials(2000), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if len(got.Cells[i].Estimates) != len(direct[i].Estimates) {
			t.Fatalf("cell %d: %d estimates, want %d", i, len(got.Cells[i].Estimates), len(direct[i].Estimates))
		}
		for j := range direct[i].Estimates {
			g, w := got.Cells[i].Estimates[j], direct[i].Estimates[j]
			if g.MTTF != w.MTTF || g.StdErr != w.StdErr || g.Seed != w.Seed {
				t.Errorf("cell %d estimate %d: served %+v != direct %+v", i, j, g, w)
			}
		}
	}
}

func TestErrorResponses(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	client := srv.Client()

	check := func(name string, resp *http.Response, body []byte, wantStatus int, wantMsg string) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, wantStatus, body)
			return
		}
		var env struct {
			Error httpError `json:"error"`
		}
		mustUnmarshal(t, body, &env)
		if env.Error.Status != wantStatus || !strings.Contains(env.Error.Message, wantMsg) {
			t.Errorf("%s: error %+v does not carry status %d / %q", name, env.Error, wantStatus, wantMsg)
		}
	}

	// Malformed JSON.
	resp, err := client.Post(srv.URL+"/v1/mttf", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	check("malformed", resp, body, http.StatusBadRequest, "invalid request")

	// Unknown request field (typoed option).
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1), "trails": 100,
	})
	check("typo", resp, body, http.StatusBadRequest, "trails")

	// Unknown method and engine names route through the shared parsers.
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1), "method": "warp",
	})
	check("method", resp, body, http.StatusBadRequest, "unknown method")
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1), "engine": "quantum",
	})
	check("engine", resp, body, http.StatusBadRequest, "unknown engine")

	// Invalid spec.
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": map[string]interface{}{"name": "empty"},
	})
	check("empty spec", resp, body, http.StatusBadRequest, "no components")

	// GET on a query endpoint.
	getResp, err := client.Get(srv.URL + "/v1/mttf")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, getResp)
	check("GET", getResp, body, http.StatusMethodNotAllowed, "POST")

	// Monte-Carlo on a system that can never fail is a well-typed
	// answer, not an error: 200 with MTTF "+Inf" and FIT 0 (the PR 4
	// zero-MTTF/FIT=+Inf convention, mirrored).
	neverSpec := soferr.Spec{Components: []soferr.ComponentSpec{{
		RatePerYear: 5,
		Trace:       soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 0},
	}}}
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": neverSpec, "method": "montecarlo", "trials": 100,
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("never fails: status %d, want 200 (%s)", resp.StatusCode, body)
	} else {
		var never mttfResponse
		if err := json.Unmarshal(body, &never); err != nil {
			t.Fatalf("never fails: %v (%s)", err, body)
		}
		if !math.IsInf(never.Estimate.MTTF, 1) || never.Estimate.FIT != 0 {
			t.Errorf("never fails: estimate %+v, want MTTF +Inf with FIT 0", never.Estimate)
		}
	}

	// An out-of-domain adaptive precision target is unanswerable: 422.
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1), "target_rel_stderr": 1.5,
	})
	check("bad target", resp, body, http.StatusUnprocessableEntity, "target_rel_stderr")
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1), "target_rel_stderr": -0.25,
	})
	check("negative target", resp, body, http.StatusUnprocessableEntity, "target_rel_stderr")

	// A sweep whose axes multiply past the cell cap is rejected before
	// anything is enumerated.
	hugeRates := make([]float64, 1000)
	hugeCounts := make([]int, 100)
	for i := range hugeRates {
		hugeRates[i] = float64(i + 1)
	}
	for i := range hugeCounts {
		hugeCounts[i] = i + 1
	}
	resp, body = post(t, client, srv.URL+"/v1/sweep", map[string]interface{}{
		"sources": []map[string]interface{}{{
			"name":  "half",
			"trace": map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 5},
		}},
		"rates_per_year": hugeRates,
		"counts":         hugeCounts,
	})
	check("cell cap", resp, body, http.StatusBadRequest, "exceeds the per-request cap")
}

// TestRequestQueryDecoding: every option shape the server tests send
// decodes and clamps to the Query the server hands the System: trials
// default to Config.DefaultTrials and cap at maxRequestTrials, workers
// clamp to [0, GOMAXPROCS], names parse case-insensitively with "" and
// absent fields as defaults, a tiny target is clamped up, and the
// refusals keep their statuses.
func TestRequestQueryDecoding(t *testing.T) {
	const defTrials = 1234
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		ep   endpoint
		body string
		want soferr.Query
	}{
		{epMTTF, `{"method":"montecarlo","trials":5000,"seed":3,"engine":"fused"}`,
			soferr.Query{Trials: 5000, Seed: 3}},
		{epMTTF, `{"trials":2000,"seed":9,"engine":"Fused"}`, soferr.Query{Trials: 2000, Seed: 9}},
		{epMTTF, `{"engine":"exact","trials":9999,"seed":42}`,
			soferr.Query{Engine: soferr.Exact, Trials: 9999, Seed: 42}},
		{epMTTF, `{"engine":"EXACT"}`, soferr.Query{Engine: soferr.Exact, Trials: defTrials}},
		{epMTTF, `{"trials":5000,"seed":3,"engine":"fused","sampler":"sobol"}`,
			soferr.Query{Sampler: soferr.Sobol, Trials: 5000, Seed: 3}},
		{epMTTF, `{"sampler":"","engine":""}`, soferr.Query{Trials: defTrials}},
		{epMTTF, `{"engine":null,"sampler":null}`, soferr.Query{Trials: defTrials}},
		{epMTTF, `{}`, soferr.Query{Trials: defTrials}},
		{epMTTF, `{"engine":"fused","seed":1,"target_rel_stderr":0.02}`,
			soferr.Query{Trials: defTrials, Seed: 1, TargetRelStdErr: 0.02}},
		{epMTTF, `{"engine":"fused","seed":1,"target_rel_stderr":1e-9}`,
			soferr.Query{Trials: defTrials, Seed: 1, TargetRelStdErr: minTargetRelStdErr}},
		{epMTTF, `{"trials":50000000,"timeout_ms":1}`, soferr.Query{Trials: maxRequestTrials}},
		{epMTTF, `{"trials":-4,"workers":-3}`, soferr.Query{Trials: defTrials}},
		{epMTTF, `{"workers":1048576}`, soferr.Query{Trials: defTrials, Workers: procs}},
		{epCompare, `{"methods":["avf+sofr","montecarlo"],"trials":2000,"seed":5,"workers":1}`,
			soferr.Query{Trials: 2000, Seed: 5, Workers: 1}},
		{epSweep, `{"sources":[],"rates_per_year":[1],"seed":7,"trials":1000,"engine":"fused","sampler":"sobol","target_rel_stderr":0.05,"workers":1}`,
			soferr.Query{Sampler: soferr.Sobol, Trials: 1000, Seed: 7, TargetRelStdErr: 0.05, Workers: 1}},
	}
	srv := New(Config{DefaultTrials: defTrials})
	// decodeQuery runs an endpoint's decode and clamp over body.
	decodeQuery := func(ep endpoint, body string) (soferr.Query, *httptest.ResponseRecorder, bool) {
		var q *soferr.Query
		var v interface{}
		switch ep {
		case epMTTF:
			req := &mttfRequest{}
			q, v = &req.Query, req
		case epCompare:
			req := &compareRequest{}
			q, v = &req.Query, req
		case epSweep:
			req := &sweepRequest{}
			q, v = &req.Query, req
		}
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		ok := srv.decode(w, r, v) && srv.clamp(w, r, q)
		return *q, w, ok
	}
	for _, c := range cases {
		q, w, ok := decodeQuery(c.ep, c.body)
		if !ok {
			t.Errorf("%s %s: refused with %d: %s", endpointNames[c.ep], c.body, w.Code, w.Body)
		} else if q != c.want {
			t.Errorf("%s %s: query %+v, want %+v", endpointNames[c.ep], c.body, q, c.want)
		}
	}

	refusals := []struct {
		ep         endpoint
		body       string
		wantStatus int
		wantMsg    string
	}{
		{epMTTF, `{"engine":"quantum"}`, http.StatusBadRequest, `unknown engine "quantum"`},
		{epSweep, `{"engine":"naive"}`, http.StatusBadRequest, `unknown engine "naive"`},
		{epMTTF, `{"sampler":"halton"}`, http.StatusUnprocessableEntity, `unknown sampler "halton"`},
		{epSweep, `{"sampler":"halton"}`, http.StatusUnprocessableEntity, `unknown sampler "halton"`},
		{epMTTF, `{"target_rel_stderr":1.5}`, http.StatusUnprocessableEntity, "target_rel_stderr"},
		{epCompare, `{"target_rel_stderr":-0.25}`, http.StatusUnprocessableEntity, "target_rel_stderr"},
		{epMTTF, `{"trails":100}`, http.StatusBadRequest, "trails"},
		{epMTTF, `{"engine":1}`, http.StatusBadRequest, "invalid request"},
	}
	for _, c := range refusals {
		_, w, ok := decodeQuery(c.ep, c.body)
		var env struct {
			Error httpError `json:"error"`
		}
		mustUnmarshal(t, w.Body.Bytes(), &env)
		if ok || w.Code != c.wantStatus || !strings.Contains(env.Error.Message, c.wantMsg) {
			t.Errorf("%s %s: %d %s; want %d naming %q", endpointNames[c.ep], c.body, w.Code, w.Body, c.wantStatus, c.wantMsg)
		}
	}
}

func TestRequestDeadline(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	// Every trial block of this query sleeps 50ms (an injected delay on
	// the trial point), so it cannot finish in 1ms; the deadline must
	// map onto the query and come back as 504.
	defer faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "montecarlo.trial", Delay: 50 * time.Millisecond},
	}})()
	spec := soferr.Spec{Components: []soferr.ComponentSpec{{
		RatePerYear: 1e4,
		Trace:       soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 86400, BusySeconds: 3600},
	}}}
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "montecarlo",
		"trials": 50_000_000, "timeout_ms": 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	s := New(Config{CacheSize: 2})
	srv := httptest.NewServer(s)
	defer srv.Close()
	for i := 0; i < 5; i++ {
		resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
			"spec": testSpec(float64(1000 + i)), "method": "avf+sofr",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	m := s.Metrics()
	if m.Cache.Size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", m.Cache.Size)
	}
	if m.Cache.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", m.Cache.Evictions)
	}
	if m.Cache.Misses != 5 {
		t.Errorf("misses = %d, want 5", m.Cache.Misses)
	}
	if m.Compiles != 5 {
		t.Errorf("compiles = %d, want 5", m.Compiles)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(10), "method": "softarch",
	})
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	var m Metrics
	mustUnmarshal(t, body, &m)
	if m.Queries["mttf"] != 1 {
		t.Errorf("metrics queries.mttf = %d, want 1", m.Queries["mttf"])
	}
	if m.Cache.Misses != 1 {
		t.Errorf("metrics cache misses = %d, want 1", m.Cache.Misses)
	}
	if m.CompileMSTotal < 0 {
		t.Errorf("compile_ms_total = %v", m.CompileMSTotal)
	}
	// Per-endpoint latency summaries: the one completed mttf request is
	// counted with a positive total and max >= the mean; untouched
	// endpoints stay zero.
	lat := m.Latency["mttf"]
	if lat.Count != 1 {
		t.Errorf("latency.mttf.count = %d, want 1", lat.Count)
	}
	if lat.TotalMS <= 0 || lat.MaxMS <= 0 || lat.MaxMS < lat.TotalMS/float64(lat.Count) {
		t.Errorf("latency.mttf summary inconsistent: %+v", lat)
	}
	if idle := m.Latency["sweep"]; idle.Count != 0 || idle.TotalMS != 0 || idle.MaxMS != 0 {
		t.Errorf("latency.sweep = %+v, want zeros", idle)
	}
	if !strings.Contains(string(body), `"latency"`) {
		t.Errorf("/metrics body lacks latency block: %s", body)
	}
}

// TestMetricsCompilerCaches: /metrics counts the Compiler's simulation
// and processor-union caches. A Spec with a gzip processor component
// and a gzip int component simulates gzip once and reads that
// simulation again for the int unit, and builds one union.
func TestMetricsCompilerCaches(t *testing.T) {
	s := New(Config{Compiler: &soferr.Compiler{Instructions: 5000}})
	srv := httptest.NewServer(s)
	defer srv.Close()
	gzip := soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: "gzip"}
	gzipInt := gzip
	gzipInt.Unit = soferr.UnitInt
	spec := soferr.Spec{Components: []soferr.ComponentSpec{
		{RatePerYear: 1e4, Trace: gzip},
		{RatePerYear: 1e4, Trace: gzipInt},
	}}
	if resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "avf+sofr",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	var m Metrics
	mustUnmarshal(t, body, &m)
	if want := (flight.Stats{Hits: 1, Misses: 1, Size: 1, Capacity: flight.DefaultCapacity}); m.SimulationCache != want {
		t.Errorf("simulation_cache = %+v, want %+v", m.SimulationCache, want)
	}
	if want := (flight.Stats{Misses: 1, Size: 1, Capacity: flight.DefaultCapacity}); m.UnionCache != want {
		t.Errorf("union_cache = %+v, want %+v", m.UnionCache, want)
	}
	for _, key := range []string{`"simulation_cache":{"hits":1,"misses":1,"evictions":0,"size":1,"capacity":64}`,
		`"union_cache":{"hits":0,"misses":1,"evictions":0,"size":1,"capacity":64}`} {
		if !strings.Contains(string(body), key) {
			t.Errorf("/metrics body lacks %s: %s", key, body)
		}
	}
}

// TestServedAdaptiveTarget covers the target_rel_stderr wire option:
// an adaptive query answers 200 with the achieved precision, the
// trials actually run (fewer than the fixed default), and the clamped
// target recorded on the estimate.
func TestServedAdaptiveTarget(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	resp, body := post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1e6), "method": "montecarlo",
		"engine": "fused", "seed": 1, "target_rel_stderr": 0.02,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out mttfResponse
	mustUnmarshal(t, body, &out)
	est := out.Estimate
	if est.TargetRelStdErr != 0.02 {
		t.Errorf("estimate target = %v, want 0.02", est.TargetRelStdErr)
	}
	if est.RelStdErr() > 0.02 {
		t.Errorf("achieved RSE %v > target", est.RelStdErr())
	}
	if est.Trials <= 0 || est.Trials >= soferr.DefaultTrials {
		t.Errorf("adaptive served query used %d trials, want (0, %d)", est.Trials, soferr.DefaultTrials)
	}
	if est.Engine != soferr.Fused {
		t.Errorf("engine = %v, want fused", est.Engine)
	}

	// A tighter-than-floor target is clamped, not rejected.
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1e6), "method": "montecarlo",
		"engine": "fused", "seed": 1, "target_rel_stderr": 1e-9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped target: status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &out)
	if out.Estimate.TargetRelStdErr != minTargetRelStdErr {
		t.Errorf("clamped target = %v, want %v", out.Estimate.TargetRelStdErr, minTargetRelStdErr)
	}
}

// TestGracefulShutdownMidQuery drives a real http.Server: a query is in
// flight when Shutdown is called, and both the query (complete answer)
// and the shutdown (nil) must succeed. An injected 20ms delay on every
// trial block keeps the query in flight long enough.
func TestGracefulShutdownMidQuery(t *testing.T) {
	defer faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "montecarlo.trial", Delay: 20 * time.Millisecond},
	}})()
	s := New(Config{MaxTimeout: -1})
	httpSrv := &http.Server{Handler: s}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	url := fmt.Sprintf("http://%s", ln.Addr())

	type result struct {
		status int
		body   []byte
		err    error
	}
	queryDone := make(chan result, 1)
	go func() {
		data, _ := json.Marshal(map[string]interface{}{
			"spec": testSpec(1e4), "method": "montecarlo",
			"trials": 100_000, "seed": 1,
		})
		resp, err := http.Post(url+"/v1/mttf", "application/json", bytes.NewReader(data))
		if err != nil {
			queryDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		queryDone <- result{status: resp.StatusCode, body: buf.Bytes()}
	}()

	// Wait for the query to be in flight, then shut down around it.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}
	res := <-queryDone
	if res.err != nil {
		t.Fatalf("in-flight query failed: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight query status %d: %s", res.status, res.body)
	}
	var got mttfResponse
	mustUnmarshal(t, res.body, &got)
	if !(got.Estimate.MTTF > 0) {
		t.Errorf("shutdown-straddling query returned %+v", got.Estimate)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExactEngineServed: the closed-form engine over HTTP. A
// tabulatable spec answers 200 with the deterministic contract (zero
// stderr/trials/seed) and, because exact queries are seed- and
// trial-free, any sampling options on a repeat request hit the same
// query-cache entry. An untabulatable spec (incommensurate periods) is
// a well-typed 422, not a 500, on every closed-form query: the exact
// engine, SoftArch (alone and in a compare), reliability, and quantile
// all answer from one state. A commensurate unequal-period spec
// answers SoftArch with the exact engine's MTTF, bit for bit.
func TestExactEngineServed(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	client := srv.Client()

	spec := testSpec(1e6)
	resp, body := post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "montecarlo", "engine": "exact",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got mttfResponse
	mustUnmarshal(t, body, &got)
	if got.Estimate.Engine != soferr.Exact || got.Estimate.StdErr != 0 ||
		got.Estimate.Trials != 0 || got.Estimate.Seed != 0 {
		t.Errorf("served exact estimate is not deterministic: %+v", got.Estimate)
	}
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.MTTF(context.Background(), soferr.MonteCarlo, soferr.WithEngine(soferr.Exact))
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate.MTTF != want.MTTF {
		t.Errorf("served exact MTTF = %v, direct = %v", got.Estimate.MTTF, want.MTTF)
	}

	// Different trials/seed, same exact answer, same cache entry.
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "montecarlo", "engine": "exact", "trials": 9999, "seed": 42,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var again mttfResponse
	mustUnmarshal(t, body, &again)
	if !again.Estimate.Cached {
		t.Error("exact repeat with sampling options missed the seed-free cache entry")
	}
	if again.Estimate.MTTF != got.Estimate.MTTF || again.Estimate.Trials != 0 || again.Estimate.Seed != 0 {
		t.Errorf("exact cache normalization broken over HTTP: %+v", again.Estimate)
	}

	// Incommensurate periods cannot be tabulated: 422 with the typed
	// message, on the same path every endpoint's errors flow through.
	incomm := soferr.Spec{Components: []soferr.ComponentSpec{
		{RatePerYear: 1e6, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 4}},
		{RatePerYear: 1e6, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: math.Pi, BusySeconds: 1}},
	}}
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": incomm, "method": "montecarlo", "engine": "exact",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("incommensurate exact: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	var env struct {
		Error httpError `json:"error"`
	}
	mustUnmarshal(t, body, &env)
	if !strings.Contains(env.Error.Message, "exact engine") {
		t.Errorf("422 message %q does not name the exact engine", env.Error.Message)
	}
	for _, q := range []struct {
		path string
		body map[string]interface{}
	}{
		{"/v1/mttf", map[string]interface{}{"spec": incomm, "method": "softarch"}},
		{"/v1/compare", map[string]interface{}{"spec": incomm, "methods": []string{"avf+sofr", "softarch"}}},
		{"/v1/reliability", map[string]interface{}{"spec": incomm, "t_seconds": 5.0}},
		{"/v1/quantile", map[string]interface{}{"spec": incomm, "p": 0.5}},
	} {
		resp, body = post(t, client, srv.URL+q.path, q.body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("incommensurate %s: status %d, want 422 (%s)", q.path, resp.StatusCode, body)
			continue
		}
		env.Error = httpError{}
		mustUnmarshal(t, body, &env)
		if !strings.Contains(env.Error.Message, "exact engine") {
			t.Errorf("%s 422 message %q does not name the exact engine", q.path, env.Error.Message)
		}
	}

	// Commensurate unequal periods: SoftArch answers, from the exact
	// engine's state.
	comm := soferr.Spec{Components: []soferr.ComponentSpec{
		{RatePerYear: 1e6, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 4}},
		{RatePerYear: 1e6, Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 20, BusySeconds: 4}},
	}}
	var commEst [2]mttfResponse
	for i, req := range []map[string]interface{}{
		{"spec": comm, "method": "softarch"},
		{"spec": comm, "method": "montecarlo", "engine": "exact"},
	} {
		resp, body = post(t, client, srv.URL+"/v1/mttf", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commensurate %v: status %d, want 200 (%s)", req["method"], resp.StatusCode, body)
		}
		mustUnmarshal(t, body, &commEst[i])
	}
	if sa, ex := commEst[0].Estimate.MTTF, commEst[1].Estimate.MTTF; sa != ex || !(sa > 0) {
		t.Errorf("commensurate SoftArch MTTF = %v, exact = %v; want bit-equal and positive", sa, ex)
	}

	// The same system under a sampling engine still answers 200.
	resp, body = post(t, client, srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": incomm, "method": "montecarlo", "engine": "fused", "trials": 2000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("incommensurate fused: status %d, want 200 (%s)", resp.StatusCode, body)
	}
}
