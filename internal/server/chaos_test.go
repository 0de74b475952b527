package server

// The chaos suite: scripted fault schedules (internal/faultinject)
// driven through a live server, asserting the failure model's
// degradation invariants (DESIGN.md, "Failure model"):
//
//  1. the process never dies — every fault is contained to at most the
//     requests it touched;
//  2. every in-flight request terminates with a structured status (an
//     estimate, an error envelope, or a visibly truncated stream —
//     never a hang, never a silent wrong answer);
//  3. seeded answers are bit-identical whenever the fault missed, so
//     chaos runs are debuggable replay for production incidents.
//
// Run with `make chaos` (-race, non-short). Tests arm the global
// fault-injection registry, so none of them may use t.Parallel.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/faultinject"
	"github.com/soferr/soferr/internal/flight"
	"github.com/soferr/soferr/internal/montecarlo"
)

// checkStructured asserts invariant 2 for one response: 200 bodies
// decode as JSON, failures carry the envelope with a matching status.
func checkStructured(t *testing.T, label string, status int, body []byte) {
	t.Helper()
	if status == http.StatusOK {
		var v map[string]interface{}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s: 200 with undecodable body %q: %v", label, body, err)
		}
		return
	}
	var envelope struct {
		Error httpError `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Status != status {
		t.Errorf("%s: status %d with unstructured body %q", label, status, body)
	}
}

// referenceMTTF computes the direct in-process answer the served one
// must match bit for bit when no fault fires.
func referenceMTTF(t *testing.T, spec soferr.Spec, trials int, seed uint64) soferr.Estimate {
	t.Helper()
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithTrials(trials), soferr.WithSeed(seed), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// stormMTTF fires concurrent seeded requests at the server and asserts
// every one terminates with a structured status. Distinct rates give
// distinct spec hashes so the compile path stays hot.
func stormMTTF(t *testing.T, srv *httptest.Server, workers, perWorker int) (ok, failed int64) {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := map[string]interface{}{
					"spec":   testSpec(1e5 + float64(w*perWorker+i)),
					"trials": 2000, "seed": uint64(i + 1), "engine": "fused",
				}
				resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", req)
				checkStructured(t, fmt.Sprintf("storm worker %d req %d", w, i), resp.StatusCode, body)
				mu.Lock()
				if resp.StatusCode == http.StatusOK {
					ok++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ok, failed
}

// postDisarmBitIdentity asserts invariant 3: once the schedule is gone,
// a fresh seeded query (one the chaos run never issued, so no cache can
// answer it) equals the direct computation bit for bit.
func postDisarmBitIdentity(t *testing.T, srv *httptest.Server) {
	t.Helper()
	spec := testSpec(7.5e5)
	want := referenceMTTF(t, spec, 3000, 99)
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "trials": 3000, "seed": 99, "engine": "fused",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disarm query: %d %s", resp.StatusCode, body)
	}
	var got mttfResponse
	mustUnmarshal(t, body, &got)
	if got.Estimate.MTTF != want.MTTF || got.Estimate.StdErr != want.StdErr {
		t.Errorf("post-disarm estimate differs from direct: %+v vs %+v", got.Estimate, want)
	}
}

// TestChaosCompileFaults: a schedule of failing and slow compiles. The
// process survives, every request ends structured (200 or 500), failed
// hashes are retried rather than cached poisoned, and the disarmed
// server answers bit-identically.
func TestChaosCompileFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	disarm := faultinject.Arm(faultinject.Schedule{Seed: 11, Rules: []faultinject.Rule{
		{Point: "server.compile", P: 0.3, Count: 10},
		{Point: "server.compile", P: 0.2, Count: 5, Delay: 20 * time.Millisecond, Err: faultinject.ErrInjected},
	}})
	ok, failed := stormMTTF(t, srv, 8, 6)
	stats := faultinject.Snapshot()["server.compile"]
	disarm()
	if stats.Fired == 0 {
		t.Fatalf("compile schedule never fired (stats %+v); the storm tested nothing", stats)
	}
	if failed == 0 {
		t.Error("injected compile faults produced no failed requests")
	}
	if ok == 0 {
		t.Error("every request failed; faults were not contained to their hits")
	}
	t.Logf("compile chaos: %d ok, %d failed, %d/%d fired", ok, failed, stats.Fired, stats.Hits)

	// A hash whose compile failed must be retryable: after disarm every
	// spec compiles, including ones the schedule poisoned.
	ok2, failed2 := stormMTTF(t, srv, 4, 3)
	if failed2 != 0 {
		t.Errorf("post-disarm storm failed %d requests (%d ok)", failed2, ok2)
	}
	postDisarmBitIdentity(t, srv)
}

// TestChaosWorkerPanics: trial-worker panics mid-Monte-Carlo surface as
// structured 500s on exactly the requests whose trials hit them; the
// server, its limiter, and its cache stay consistent throughout.
func TestChaosWorkerPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	disarm := faultinject.Arm(faultinject.Schedule{Seed: 13, Rules: []faultinject.Rule{
		// The trial point fires once per claimed block, across every
		// request's workers; a low probability spreads panics over the
		// storm without failing everything.
		{Point: "montecarlo.trial", P: 0.4, Count: 8, PanicMsg: "chaos trial"},
	}})
	ok, failed := stormMTTF(t, srv, 8, 4)
	fired := faultinject.Snapshot()["montecarlo.trial"].Fired
	disarm()
	if fired == 0 {
		t.Fatal("trial panic schedule never fired; the storm tested nothing")
	}
	if failed == 0 {
		t.Error("injected trial panics produced no failed requests")
	}
	if ok == 0 {
		t.Error("every request failed; panics were not contained per request")
	}
	t.Logf("trial-panic chaos: %d ok, %d failed, %d panics fired", ok, failed, fired)

	// The panic is typed all the way up: a direct hit maps to a 500
	// mentioning the contained panic, not a crash or a generic error.
	disarm = faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "montecarlo.trial", Hits: []int{1}, PanicMsg: "chaos trial"},
	}})
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(9e5), "trials": 2000, "seed": 5,
	})
	disarm()
	if resp.StatusCode != http.StatusInternalServerError ||
		!bytes.Contains(body, []byte(montecarlo.ErrTrialPanic.Error())) {
		t.Errorf("direct trial panic: %d %s, want 500 wrapping ErrTrialPanic", resp.StatusCode, body)
	}
	postDisarmBitIdentity(t, srv)
}

// TestChaosEvictionStorm: every successful compile is immediately
// force-evicted mid-single-flight while requests race, on a one-slot
// cache for extra reinsertion pressure. No waiter may observe a zero
// System, no request may hang, and answers stay bit-identical (each
// request just recompiles).
func TestChaosEvictionStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{CacheSize: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "server.cache.evict"},
	}})
	// Half the storm shares one spec (waiters racing the eviction of
	// their own entry), half churns distinct specs (LRU pressure).
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rate := 1e6 // shared spec
				if w%2 == 0 {
					rate = 2e5 + float64(w*10+i)
				}
				resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
					"spec": testSpec(rate), "trials": 1000, "seed": 3, "engine": "fused",
				})
				checkStructured(t, fmt.Sprintf("evict storm %d/%d", w, i), resp.StatusCode, body)
				if resp.StatusCode != http.StatusOK {
					mu.Lock()
					failures++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	evictFired := faultinject.Snapshot()["server.cache.evict"].Fired
	disarm()
	if evictFired == 0 {
		t.Fatal("eviction schedule never fired")
	}
	if failures != 0 {
		t.Errorf("%d requests failed under eviction chaos; eviction must never fail a waiter", failures)
	}
	m := s.Metrics()
	if m.Cache.Size != 0 {
		t.Errorf("cache size %d after evict-everything schedule, want 0", m.Cache.Size)
	}
	postDisarmBitIdentity(t, srv)
}

// TestChaosCancellationStorm: clients abandoning requests mid-compile
// and mid-query (tiny deadlines, slow injected compiles) race normal
// traffic. Everything terminates, the limiter and compile queue drain,
// and the server still answers cleanly afterwards.
func TestChaosCancellationStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{MaxConcurrent: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	disarm := faultinject.Arm(faultinject.Schedule{Seed: 17, Rules: []faultinject.Rule{
		{Point: "server.compile", P: 0.5, Count: 20, Delay: 30 * time.Millisecond, Err: nil},
	}})
	defer disarm()
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := map[string]interface{}{
					"spec": testSpec(3e5 + float64(w*100+i)), "trials": 2000, "seed": 1,
				}
				if w%2 == 0 {
					// Abandoners: a deadline far shorter than the injected
					// compile delay.
					body["timeout_ms"] = 5
				}
				data, err := json.Marshal(body)
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/mttf", bytes.NewReader(data))
				req.Header.Set("Content-Type", "application/json")
				resp, err := srv.Client().Do(req)
				if err == nil {
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
					checkStructured(t, fmt.Sprintf("cancel storm %d/%d", w, i), resp.StatusCode, buf.Bytes())
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	disarm()

	// The storm over, the server must be fully drained and answering:
	// no leaked limiter slots, no stuck compile queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d long after the storm", s.Metrics().Inflight)
		}
		time.Sleep(10 * time.Millisecond)
	}
	postDisarmBitIdentity(t, srv)
}

// TestChaosSlowCompileDeadline: a compile slower than the request
// deadline times out the requester (504) but still completes into the
// cache — the next request is a hit, and bit-identical to what the
// first would have returned.
func TestChaosSlowCompileDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	spec := testSpec(4.2e5)
	want := referenceMTTF(t, spec, 2000, 12)

	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "server.compile", Hits: []int{1}, Delay: 300 * time.Millisecond, Err: nil},
	}})
	req := map[string]interface{}{"spec": spec, "trials": 2000, "seed": 12, "engine": "fused"}
	slow := map[string]interface{}{"spec": spec, "trials": 2000, "seed": 12, "engine": "fused", "timeout_ms": 30}
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", slow)
	disarm()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow compile under 30ms deadline: %d %s, want 504", resp.StatusCode, body)
	}
	checkStructured(t, "slow compile", resp.StatusCode, body)

	// The detached compile finishes into the cache regardless.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Compiles == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned compile never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up after abandoned compile: %d %s", resp.StatusCode, body)
	}
	var got mttfResponse
	mustUnmarshal(t, body, &got)
	if !got.CompileCacheHit {
		t.Error("follow-up did not hit the cache the abandoned compile filled")
	}
	if got.Estimate.MTTF != want.MTTF || got.Estimate.StdErr != want.StdErr {
		t.Errorf("estimate after abandoned compile differs: %+v vs %+v", got.Estimate, want)
	}
}

// TestChaosStreamCutAndResume is the sweep half of the acceptance
// criteria: a streaming sweep cut mid-flight (client-side abandonment
// here; the client package chaos-tests server-side cuts) is resumed
// with cursor=K and the remaining cells are bit-identical to the
// uninterrupted stream.
func TestChaosStreamCutAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	// Uninterrupted reference.
	full, done := streamSweepLines(t, srv.Client(), srv.URL+"/v1/sweep?stream=ndjson", sweepBody())
	if done == nil || len(full) != 8 {
		t.Fatalf("reference stream: %d lines, done=%v", len(full), done)
	}

	// Open the stream, read 3 lines, cut the connection.
	data, err := json.Marshal(sweepBody())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep?stream=ndjson", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var delivered []ndjsonLine
	for sc.Scan() && len(delivered) < 3 {
		var line ndjsonLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, line)
	}
	cancel()
	resp.Body.Close()
	if len(delivered) != 3 {
		t.Fatalf("cut stream delivered %d lines before the cut", len(delivered))
	}

	// Resume from the last delivered index + 1.
	cursor := delivered[len(delivered)-1].Cell.Index + 1
	tail, done := streamSweepLines(t, srv.Client(),
		fmt.Sprintf("%s/v1/sweep?stream=ndjson&cursor=%d", srv.URL, cursor), sweepBody())
	if done == nil {
		t.Fatal("resumed stream had no terminator")
	}
	if len(delivered)+len(tail) != len(full) {
		t.Fatalf("cut(%d) + resumed(%d) != full(%d)", len(delivered), len(tail), len(full))
	}
	for i, line := range append(delivered, tail...) {
		want := full[i]
		if line.Cell.Index != want.Cell.Index || line.Cell.Seed != want.Cell.Seed ||
			!sameEstimates(line.Estimates, want.Estimates) {
			t.Errorf("reassembled cell %d differs from uninterrupted stream:\n got  %+v\n want %+v", i, line, want)
		}
	}
}

// TestChaosHandlerPanicStorm: handler-level panics (the recovery
// middleware's worst case) mixed into live traffic. Every hit request
// gets a structured 500, every miss is untouched, and the recovered
// count matches the schedule exactly.
func TestChaosHandlerPanicStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	disarm := faultinject.Arm(faultinject.Schedule{Seed: 23, Rules: []faultinject.Rule{
		{Point: "server.handler", P: 0.3, Count: 12, PanicMsg: "handler chaos"},
	}})
	ok, failed := stormMTTF(t, srv, 8, 5)
	fired := faultinject.Snapshot()["server.handler"].Fired
	disarm()
	if fired == 0 {
		t.Fatal("handler panic schedule never fired")
	}
	if failed != fired {
		t.Errorf("failed requests (%d) != fired panics (%d); panics leaked or over-failed", failed, fired)
	}
	if ok+failed != 40 {
		t.Errorf("storm lost requests: %d accounted of 40", ok+failed)
	}
	if got := s.Metrics().PanicsRecovered; got != fired {
		t.Errorf("panics_recovered = %d, want %d", got, fired)
	}
	postDisarmBitIdentity(t, srv)
}

// syncBuffer is a Config.Log that handler goroutines and the test may
// share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *syncBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestChaosCompilePanic: a compile that panics is contained by the
// System LRU, not the recovery middleware: the request gets a 500
// naming flight.ErrPanic and nothing stays cached. On a one-slot
// server the same Spec then compiles and answers bit-identically, which
// it could not if the panic had kept its compile slot.
func TestChaosCompilePanic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{MaxConcurrent: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()
	spec := testSpec(6.6e5)
	want := referenceMTTF(t, spec, 2000, 21)
	req := map[string]interface{}{"spec": spec, "trials": 2000, "seed": 21, "engine": "fused", "timeout_ms": 5000}

	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "server.compile", Hits: []int{1}, PanicMsg: "chaos compile"},
	}})
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", req)
	disarm()
	checkStructured(t, "compile panic", resp.StatusCode, body)
	if resp.StatusCode != http.StatusInternalServerError ||
		!bytes.Contains(body, []byte(flight.ErrPanic.Error())) || !bytes.Contains(body, []byte("chaos compile")) {
		t.Fatalf("compile panic: %d %s, want a 500 naming flight.ErrPanic and the panic value", resp.StatusCode, body)
	}
	m := s.Metrics()
	if m.PanicsRecovered != 0 {
		t.Errorf("panics_recovered = %d, want 0: the cache contains a compile panic", m.PanicsRecovered)
	}
	if m.Cache.Size != 0 {
		t.Errorf("compile_cache.size = %d after a panicked compile, want 0", m.Cache.Size)
	}

	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after the compile panic: %d %s", resp.StatusCode, body)
	}
	var got mttfResponse
	mustUnmarshal(t, body, &got)
	if got.CompileCacheHit {
		t.Error("the retry hit the cache the panicked compile should have left")
	}
	if got.Estimate.MTTF != want.MTTF || got.Estimate.StdErr != want.StdErr {
		t.Errorf("retry estimate differs from direct: %+v vs %+v", got.Estimate, want)
	}
}

// TestChaosCompileBacklog: past the compile backlog (8 pending compiles
// per compile slot) fresh Specs are refused with a 503 that says when
// to retry, every request ends structured, and once the slow compiles
// drain, every refused Spec compiles.
func TestChaosCompileBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	s := New(Config{MaxConcurrent: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// 12 requests of 10 ms each, against compiles of 200 ms that run one
	// at a time: at most a few compiles finish before the backlog fills.
	const requests = 12
	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "server.compile", Delay: 200 * time.Millisecond},
	}})
	defer disarm()
	status := make([]int, requests)
	var wg sync.WaitGroup
	for i := range status {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			data, err := json.Marshal(map[string]interface{}{"spec": testSpec(8e5 + float64(i)), "trials": 1000, "timeout_ms": 10})
			if err != nil {
				t.Error(err)
				return
			}
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/mttf", bytes.NewReader(data))
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			label := fmt.Sprintf("backlog request %d", i)
			checkStructured(t, label, resp.StatusCode, body.Bytes())
			status[i] = resp.StatusCode
			if resp.StatusCode == http.StatusServiceUnavailable {
				var env struct {
					Error httpError `json:"error"`
				}
				mustUnmarshal(t, body.Bytes(), &env)
				if resp.Header.Get("Retry-After") != "1" || env.Error.RetryAfterSeconds != 1 ||
					!bytes.Contains(body.Bytes(), []byte(errCompileBacklog.Error())) {
					t.Errorf("%s: 503 without the backlog retry hint: Retry-After %q, %s", label, resp.Header.Get("Retry-After"), body.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	disarm()
	var refused []int
	accepted := int64(0)
	for i, code := range status {
		switch code {
		case http.StatusServiceUnavailable:
			refused = append(refused, i)
		case http.StatusGatewayTimeout:
			accepted++
		default:
			t.Errorf("request %d: status %d, want 504 (compile accepted) or 503 (backlog full)", i, code)
		}
	}
	if len(refused) == 0 {
		t.Fatalf("no request was refused (statuses %v); the backlog bound was never reached", status)
	}

	// The accepted compiles finish into the cache; then the backlog has
	// room again and every refused Spec compiles.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Compiles < accepted {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d accepted compiles finished", s.Metrics().Compiles, accepted)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, i := range refused {
		resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{"spec": testSpec(8e5 + float64(i)), "trials": 1000})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("refused spec %d after the drain: %d %s", i, resp.StatusCode, body)
		}
	}
	t.Logf("backlog: statuses %v", status)
}

// TestChaosPanicStacksStayInLog: a contained panic's error text carries
// the Go stack after its first line. A client gets only that first line
// (the sentinel and the panic value), on a compile-panic 500, a
// trial-panic 500 and a streamed sweep's cell line, while Config.Log
// gets the stack.
func TestChaosPanicStacksStayInLog(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs non-short")
	}
	var log syncBuffer
	s := New(Config{Log: &log})
	srv := httptest.NewServer(s)
	defer srv.Close()
	for _, tc := range []struct {
		name, point, path string
		body              map[string]interface{}
		sentinel          error
	}{
		{"compile panic", "server.compile", "/v1/mttf",
			map[string]interface{}{"spec": testSpec(5.1e5), "trials": 1000}, flight.ErrPanic},
		{"trial panic", "montecarlo.trial", "/v1/mttf",
			map[string]interface{}{"spec": testSpec(5.2e5), "trials": 1000}, montecarlo.ErrTrialPanic},
		{"sweep cell", "montecarlo.trial", "/v1/sweep?stream=ndjson", map[string]interface{}{
			"sources": []map[string]interface{}{
				{"name": "half", "trace": map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 5}},
			},
			"rates_per_year": []float64{1e4}, "methods": []string{"montecarlo"}, "trials": 1000,
		}, montecarlo.ErrTrialPanic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logged := len(log.String())
			disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
				{Point: tc.point, Hits: []int{1}, PanicMsg: "chaos stack"},
			}})
			resp, body := post(t, srv.Client(), srv.URL+tc.path, tc.body)
			disarm()
			if tc.point == "server.compile" || tc.path == "/v1/mttf" {
				if resp.StatusCode != http.StatusInternalServerError {
					t.Errorf("status %d, want 500: %s", resp.StatusCode, body)
				}
				checkStructured(t, tc.name, resp.StatusCode, body)
			} else {
				var line ndjsonLine
				first, _, _ := bytes.Cut(body, []byte("\n"))
				mustUnmarshal(t, first, &line)
				if resp.StatusCode != http.StatusOK || line.Error == "" {
					t.Errorf("status %d, first line %s: want a 200 stream opening with the cell's error line", resp.StatusCode, first)
				}
			}
			if !bytes.Contains(body, []byte(tc.sentinel.Error())) || !bytes.Contains(body, []byte("chaos stack")) {
				t.Errorf("body lacks the sentinel %q and the panic value: %s", tc.sentinel, body)
			}
			if bytes.Contains(body, []byte("goroutine ")) {
				t.Errorf("body carries a Go stack: %s", body)
			}
			if tail := log.String()[logged:]; !strings.Contains(tail, "goroutine ") {
				t.Errorf("Config.Log did not get the stack: %q", tail)
			}
		})
	}
}
