package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/faultinject"
)

// sweepBody is the 8-cell grid the pagination and streaming tests
// share: 2 sources x 2 rates x 2 counts, Monte-Carlo only so every
// estimate is seed-sensitive.
func sweepBody() map[string]interface{} {
	return map[string]interface{}{
		"name": "paged",
		"sources": []map[string]interface{}{
			{"name": "half", "trace": map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 5}},
			{"name": "tenth", "trace": map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 1}},
		},
		"rates_per_year": []float64{1e4, 1e6},
		"counts":         []int{1, 16},
		"methods":        []string{"montecarlo"},
		"seed":           7,
		"trials":         1000,
		"engine":         "fused",
	}
}

func sameEstimates(a, b []soferr.Estimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].MTTF != b[i].MTTF || a[i].StdErr != b[i].StdErr || a[i].Seed != b[i].Seed {
			return false
		}
	}
	return true
}

// TestSweepCursorPagedBitIdentical: sweeping the grid in cursor/limit
// pages yields exactly the cells of the unpaged sweep — same absolute
// indices, same seeds, same estimate bits — with next_cursor chaining
// the pages.
func TestSweepCursorPagedBitIdentical(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	resp, body := post(t, srv.Client(), srv.URL+"/v1/sweep", sweepBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full sweep: status %d: %s", resp.StatusCode, body)
	}
	var full sweepResponse
	mustUnmarshal(t, body, &full)
	if full.Total != 8 || full.Count != 8 || full.NextCursor != 0 {
		t.Fatalf("full sweep: count=%d total=%d next=%d, want 8/8/0", full.Count, full.Total, full.NextCursor)
	}

	var paged []soferr.CellResult
	cursor := int64(0)
	for page := 0; ; page++ {
		req := sweepBody()
		req["cursor"] = cursor
		req["limit"] = 3
		resp, body := post(t, srv.Client(), srv.URL+"/v1/sweep", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status %d: %s", page, resp.StatusCode, body)
		}
		var pr sweepResponse
		mustUnmarshal(t, body, &pr)
		if pr.Cursor != cursor || pr.Total != 8 {
			t.Fatalf("page %d: cursor=%d total=%d, want %d/8", page, pr.Cursor, pr.Total, cursor)
		}
		paged = append(paged, pr.Cells...)
		if pr.NextCursor == 0 {
			break
		}
		cursor = pr.NextCursor
	}
	if len(paged) != len(full.Cells) {
		t.Fatalf("paged sweep delivered %d cells, want %d", len(paged), len(full.Cells))
	}
	for i := range full.Cells {
		if paged[i].Cell.Index != i || full.Cells[i].Cell.Index != i {
			t.Errorf("cell %d: absolute indices %d (paged) / %d (full)", i, paged[i].Cell.Index, full.Cells[i].Cell.Index)
		}
		if paged[i].Cell.Seed != full.Cells[i].Cell.Seed {
			t.Errorf("cell %d: paged seed %d != full seed %d", i, paged[i].Cell.Seed, full.Cells[i].Cell.Seed)
		}
		if !sameEstimates(paged[i].Estimates, full.Cells[i].Estimates) {
			t.Errorf("cell %d: paged estimates differ from full sweep:\n paged %+v\n full  %+v",
				i, paged[i].Estimates, full.Cells[i].Estimates)
		}
	}

	// cursor == total is an empty page in both modes, not a failure: a
	// stream cut after its last cell line resumes there.
	last := sweepBody()
	last["cursor"] = full.Total
	resp, body = post(t, srv.Client(), srv.URL+"/v1/sweep", last)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cursor=total: status %d: %s", resp.StatusCode, body)
	}
	var empty sweepResponse
	mustUnmarshal(t, body, &empty)
	if empty.Cells == nil || len(empty.Cells) != 0 || empty.Count != 0 ||
		empty.Cursor != 8 || empty.NextCursor != 0 || empty.Total != 8 {
		t.Errorf("cursor=total: %s, want cells [] count=0 cursor=8 next=0 total=8", body)
	}
	lines, done := streamSweepLines(t, srv.Client(), srv.URL+"/v1/sweep?stream=ndjson", last)
	if len(lines) != 0 || done == nil || done.Count != 0 || done.Cursor != 8 || done.NextCursor != 0 || done.Total != 8 {
		t.Errorf("cursor=total stream: %d lines, terminator %+v, want a lone done line with count=0 cursor=8 total=8", len(lines), done)
	}
}

// ndjsonLine decodes both result and terminator lines of a sweep
// stream.
type ndjsonLine struct {
	Cell       soferr.Cell       `json:"cell"`
	Estimates  []soferr.Estimate `json:"estimates"`
	Error      string            `json:"error"`
	Done       bool              `json:"done"`
	Cursor     int64             `json:"cursor"`
	Count      int64             `json:"count"`
	NextCursor int64             `json:"next_cursor"`
	Total      int64             `json:"total"`
}

func streamSweepLines(t *testing.T, client *http.Client, url string, body interface{}) (results []ndjsonLine, done *ndjsonLine) {
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
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line ndjsonLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			d := line
			done = &d
			continue
		}
		results = append(results, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results, done
}

// TestSweepNDJSONStreamAndResume: ?stream=ndjson delivers one line per
// cell plus the done terminator, and resuming from ?cursor=K yields
// lines bit-identical to the tail of the uninterrupted stream — the
// chaos-resume contract on the happy path.
func TestSweepNDJSONStreamAndResume(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	full, done := streamSweepLines(t, srv.Client(), srv.URL+"/v1/sweep?stream=ndjson", sweepBody())
	if len(full) != 8 {
		t.Fatalf("streamed %d lines, want 8", len(full))
	}
	if done == nil || !done.Done || done.Count != 8 || done.Total != 8 || done.NextCursor != 0 {
		t.Fatalf("terminator = %+v, want done with count=8 total=8 next=0", done)
	}
	for i, line := range full {
		if line.Cell.Index != i {
			t.Errorf("line %d carries index %d, want the absolute grid index", i, line.Cell.Index)
		}
		if line.Error != "" || len(line.Estimates) == 0 {
			t.Errorf("line %d: error=%q estimates=%d", i, line.Error, len(line.Estimates))
		}
	}

	// Simulate a stream cut after cell 4: resume from cursor 5.
	tail, done := streamSweepLines(t, srv.Client(), srv.URL+"/v1/sweep?stream=ndjson&cursor=5", sweepBody())
	if len(tail) != 3 {
		t.Fatalf("resumed stream delivered %d lines, want 3", len(tail))
	}
	if done == nil || done.Cursor != 5 || done.NextCursor != 0 || done.Count != 3 {
		t.Fatalf("resumed terminator = %+v", done)
	}
	for i, line := range tail {
		want := full[5+i]
		if line.Cell.Index != want.Cell.Index || line.Cell.Seed != want.Cell.Seed ||
			!sameEstimates(line.Estimates, want.Estimates) {
			t.Errorf("resumed line %d differs from uninterrupted cell %d:\n resumed %+v\n full    %+v",
				i, 5+i, line, want)
		}
	}
}

// threeEstimates is one cell's answer under every method, with the
// full-precision floats a real sweep prints.
func threeEstimates() []soferr.Estimate {
	return []soferr.Estimate{
		{Method: soferr.AVFSOFR, MTTF: 2.9161167845454545e+06, FIT: 1234.5678901234567},
		{
			Method: soferr.MonteCarlo, MTTF: 2.9043817046318493e+06, FIT: 1239.4545018735421,
			StdErr: 6507.402847512633, Trials: 4096, Seed: 0x9e3779b97f4a7c15,
			Sampler: soferr.Sobol, TargetRelStdErr: 0.01,
		},
		{Method: soferr.SoftArch, MTTF: 2.9051166009102897e+06, FIT: 1239.1409763040316},
	}
}

// TestSweepLineMatchesEncoder: the streamed sweep's line writer emits
// exactly the bytes json.NewEncoder(w).Encode(sweepLine{...}) does,
// escaping included, into a buffer reused across lines.
func TestSweepLineMatchesEncoder(t *testing.T) {
	awkward := "a<b>&\"c\\d\x01 é 猫 \u2028 \xff"
	cases := []struct {
		name string
		line sweepLine
	}{
		{"three estimates", sweepLine{
			Cell: soferr.Cell{Index: 17, Source: 2, SourceName: "gzip", RateIndex: 3, CountIndex: 1,
				RatePerYear: 1e7, Count: 16, Seed: soferr.CellSeed(7, 17)},
			Estimates: threeEstimates(),
		}},
		{"error, no estimates", sweepLine{
			Cell:  soferr.Cell{Index: 3, Source: 1, SourceName: "week", RatePerYear: 1.5e-7, Count: 1, Seed: 42},
			Error: "soferr: system week: trace period mismatch",
		}},
		{"escaped name and error", sweepLine{
			Cell:      soferr.Cell{Index: 120, SourceName: awkward, RatePerYear: 1e21, Count: 500000, Seed: math.MaxUint64},
			Estimates: []soferr.Estimate{{Method: soferr.SoftArch, MTTF: math.Inf(1)}},
			Error:     awkward,
		}},
	}
	var buf []byte
	for _, c := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.line); err != nil {
			t.Fatalf("%s: encoder: %v", c.name, err)
		}
		var err error
		if buf, err = appendSweepLine(buf[:0], c.line); err != nil {
			t.Fatalf("%s: appendSweepLine: %v", c.name, err)
		}
		if !bytes.Equal(buf, want.Bytes()) {
			t.Errorf("%s: line bytes differ from json.Encoder:\n got  %q\n want %q", c.name, buf, want.Bytes())
		}
	}
}

// flushRecorder is a ResponseWriter whose Flush hands the bytes written
// so far to the test.
type flushRecorder struct {
	header  http.Header
	mu      sync.Mutex
	body    bytes.Buffer
	flushes chan string
}

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.Write(p)
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	body := f.body.String()
	f.mu.Unlock()
	f.flushes <- body
}

// TestSweepStreamFlushesFinishedLine: a finished line reaches the client
// while the next cell is still computing. The test feeds the write loop
// cell 0 and withholds cell 1 until a Flush has carried line 0; a writer
// that held line 0 back until more output arrived would never flush it
// and fails on the test's timeout.
func TestSweepStreamFlushesFinishedLine(t *testing.T) {
	s := New(Config{})
	ch := make(chan soferr.CellResult)
	// A two-cell stream flushes at most once per line and once after the
	// terminator; the spare room keeps Flush from ever blocking.
	w := &flushRecorder{header: http.Header{}, flushes: make(chan string, 8)}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s.writeSweepLines(w, ch, 2, 0, 0, 2)
	}()
	timeout := time.After(10 * time.Second)
	send := func(res soferr.CellResult) {
		select {
		case ch <- res:
		case <-timeout:
			t.Fatalf("the write loop stopped receiving before cell %d", res.Cell.Index)
		}
	}

	send(soferr.CellResult{Cell: soferr.Cell{Index: 0, SourceName: "day", RatePerYear: 1e4, Count: 1}, Estimates: threeEstimates()})
	for flushed := false; !flushed; {
		select {
		case body := <-w.flushes:
			flushed = strings.Count(body, "\n") == 1
		case <-timeout:
			close(ch) // release the write loop
			t.Fatal("line 0 was not flushed while cell 1 was still computing")
		}
	}
	send(soferr.CellResult{Cell: soferr.Cell{Index: 1, SourceName: "day", RatePerYear: 1e6, Count: 1}, Err: errors.New("cell failed")})
	close(ch)
	<-finished

	lines := strings.Split(strings.TrimSuffix(w.body.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 2 cells and the terminator:\n%s", len(lines), w.body.String())
	}
	var done sweepDone
	mustUnmarshal(t, []byte(lines[2]), &done)
	if !done.Done || done.Count != 2 || done.CellErrors != 1 {
		t.Errorf("terminator = %s, want done with count 2 and one cell error", lines[2])
	}
	select {
	case body := <-w.flushes:
		for len(w.flushes) > 0 {
			body = <-w.flushes
		}
		if body != w.body.String() {
			t.Errorf("the terminator was not flushed: last flush carried %q", body)
		}
	default:
		t.Error("nothing was flushed after the terminator")
	}
}

// BenchmarkSweepLine encodes one three-estimate sweep line into a
// reused buffer, as the streamed sweep writes each cell.
func BenchmarkSweepLine(b *testing.B) {
	line := sweepLine{
		Cell: soferr.Cell{Index: 17, Source: 2, SourceName: "gzip", RateIndex: 3, CountIndex: 1,
			RatePerYear: 1e7, Count: 16, Seed: soferr.CellSeed(7, 17)},
		Estimates: threeEstimates(),
	}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if buf, err = appendSweepLine(buf[:0], line); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSweepCapMachineReadable: both cap overflows carry the
// machine-readable max_sweep_cells / requested_cells fields a client
// needs to auto-split, and paging within the cap succeeds.
func TestSweepCapMachineReadable(t *testing.T) {
	srv := httptest.NewServer(New(Config{MaxSweepCells: 4}))
	defer srv.Close()

	var envelope struct {
		Error httpError `json:"error"`
	}

	// 8 cells > cap 4 without paging: refused, with the fields set.
	resp, body := post(t, srv.Client(), srv.URL+"/v1/sweep", sweepBody())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap sweep: status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &envelope)
	if envelope.Error.MaxSweepCells != 4 || envelope.Error.RequestedCells != 8 {
		t.Errorf("cap error fields = %+v, want max 4 / requested 8", envelope.Error)
	}

	// The same grid pages fine with limit <= cap.
	req := sweepBody()
	req["limit"] = 4
	resp, body = post(t, srv.Client(), srv.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("paged within cap: status %d: %s", resp.StatusCode, body)
	}
	var pr sweepResponse
	mustUnmarshal(t, body, &pr)
	if pr.Count != 4 || pr.NextCursor != 4 || pr.Total != 8 {
		t.Errorf("page = count %d next %d total %d, want 4/4/8", pr.Count, pr.NextCursor, pr.Total)
	}

	// A grid beyond the enumerable bound (4x cap = 16) is refused even
	// for paging, again with the fields.
	big := sweepBody()
	big["rates_per_year"] = []float64{1, 2, 3, 4, 5}
	big["counts"] = []int{1, 2} // 2 sources x 5 rates x 2 counts = 20 > 16
	resp, body = post(t, srv.Client(), srv.URL+"/v1/sweep", big)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-enumerable sweep: status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &envelope)
	if envelope.Error.MaxSweepCells != 4 || envelope.Error.RequestedCells != 20 {
		t.Errorf("enumerable-bound error fields = %+v, want max 4 / requested 20", envelope.Error)
	}

	// A cursor past the end is a clean 400.
	bad := sweepBody()
	bad["cursor"] = 9
	resp, body = post(t, srv.Client(), srv.URL+"/v1/sweep", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cursor past end: status %d: %s", resp.StatusCode, body)
	}
}

// TestReadyzDrainFlip: /readyz answers ready until BeginDrain, then 503
// with Retry-After — while /healthz (liveness) stays 200 throughout.
func TestReadyzDrainFlip(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	if resp, body := get("/readyz"); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ready")) {
		t.Fatalf("pre-drain /readyz: %d %s", resp.StatusCode, body)
	}
	s.BeginDrain()
	resp, body := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Errorf("draining /readyz: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining /readyz carries no Retry-After")
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("liveness flipped during drain: %d", resp.StatusCode)
	}
	// Draining must not fail in-flight or even new work — only routing.
	if resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1e6), "trials": 500,
	}); resp.StatusCode != http.StatusOK {
		t.Errorf("query during drain: %d %s", resp.StatusCode, body)
	}
}

// TestRetryAfterOn503: every 503 envelope carries the Retry-After
// header and its machine-readable mirror.
func TestRetryAfterOn503(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/mttf", nil)
	s.writeError(rec, req, http.StatusServiceUnavailable, "server busy")
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var envelope struct {
		Error httpError `json:"error"`
	}
	mustUnmarshal(t, rec.Body.Bytes(), &envelope)
	if envelope.Error.RetryAfterSeconds != 1 {
		t.Errorf("retry_after_seconds = %d, want 1", envelope.Error.RetryAfterSeconds)
	}
	// Non-overload errors carry neither.
	rec = httptest.NewRecorder()
	s.writeError(rec, req, http.StatusBadRequest, "bad")
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("400 carries Retry-After %q", got)
	}
}

// TestMetricsErrorClassesAndPanics: failed requests land in their
// endpoint's error-class counters, recovered panics are counted, and
// per-point fault-injection stats appear in /metrics while armed.
func TestMetricsErrorClassesAndPanics(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// A malformed body: mttf 4xx.
	resp, _ := srv.Client().Post(srv.URL+"/v1/mttf", "application/json", bytes.NewReader([]byte("{nope")))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}

	// An injected handler error: mttf 5xx, visible in fault_injection.
	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "server.handler", Hits: []int{1}},
	}})
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{"spec": testSpec(1)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected handler error: %d %s", resp.StatusCode, body)
	}
	m := s.Metrics()
	if m.FaultInjection["server.handler"].Fired != 1 {
		t.Errorf("fault_injection = %+v, want server.handler fired once", m.FaultInjection)
	}
	disarm()

	// An injected handler panic: contained by the middleware as a
	// structured 500, counted in panics_recovered.
	disarm = faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "server.handler", Hits: []int{1}, PanicMsg: "chaos"},
	}})
	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{"spec": testSpec(1)})
	disarm()
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("recovered panic")) {
		t.Fatalf("injected panic: %d %s", resp.StatusCode, body)
	}

	m = s.Metrics()
	if ec := m.ErrorClasses["mttf"]; ec.C4xx != 1 || ec.C5xx != 1 {
		t.Errorf("mttf error classes = %+v, want 1x 4xx, 1x 5xx", ec)
	}
	if m.PanicsRecovered != 1 {
		t.Errorf("panics_recovered = %d, want 1", m.PanicsRecovered)
	}
	if m.FaultInjection != nil {
		t.Errorf("fault_injection present while disarmed: %+v", m.FaultInjection)
	}
	// The server still answers normally after the contained panic.
	if resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": testSpec(1e6), "trials": 500,
	}); resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic query: %d %s", resp.StatusCode, body)
	}
}

// TestEvictionMidSingleFlight: an entry force-evicted between compile
// completion and first use (the injected eviction race) still serves
// its waiters; the next request recompiles instead of crashing or
// serving a stale pointer.
func TestEvictionMidSingleFlight(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	req := map[string]interface{}{"spec": testSpec(1e6), "trials": 500, "seed": 9}

	disarm := faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "server.cache.evict", Hits: []int{1}},
	}})
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", req)
	disarm()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted-mid-flight request: %d %s", resp.StatusCode, body)
	}
	var first mttfResponse
	mustUnmarshal(t, body, &first)

	m := s.Metrics()
	if m.Cache.Evictions < 1 || m.Cache.Size != 0 {
		t.Errorf("cache after injected eviction: %+v, want >=1 eviction and size 0", m.Cache)
	}

	// Same request again: a fresh compile (no stale hit), same bits.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-eviction request: %d %s", resp.StatusCode, body)
	}
	var second mttfResponse
	mustUnmarshal(t, body, &second)
	if second.CompileCacheHit {
		t.Error("evicted entry reported a compile cache hit")
	}
	if second.Estimate.MTTF != first.Estimate.MTTF || second.Estimate.StdErr != first.Estimate.StdErr {
		t.Errorf("recompiled answer differs: %+v vs %+v", second.Estimate, first.Estimate)
	}
}
