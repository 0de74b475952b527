package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/server"
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

func sweepReq() SweepRequest {
	return SweepRequest{
		Name: "grid",
		Sources: []soferr.SourceSpec{
			{Name: "half", Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 5}},
			{Name: "tenth", Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 1}},
		},
		RatesPerYear: []float64{1e4, 1e6},
		Counts:       []int{1, 16},
		Methods:      []string{"montecarlo"},
		Query:        soferr.Query{Seed: 7, Trials: 1000, Engine: soferr.Fused},
	}
}

// directSweep computes the same grid in-process for bit-comparison.
func directSweep(t *testing.T) []soferr.CellResult {
	t.Helper()
	half, err := soferr.BusyIdleTrace(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	tenth, err := soferr.BusyIdleTrace(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := soferr.Sweep(context.Background(), soferr.Grid{
		Name:         "grid",
		Sources:      []soferr.TraceSource{{Name: "half", Trace: half}, {Name: "tenth", Trace: tenth}},
		RatesPerYear: []float64{1e4, 1e6},
		Counts:       []int{1, 16},
		Methods:      []soferr.Method{soferr.MonteCarlo},
		Seed:         7,
	}, soferr.WithTrials(1000), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkCells(t *testing.T, label string, got []soferr.CellResult, want []soferr.CellResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Cell.Index != want[i].Cell.Index || got[i].Cell.Seed != want[i].Cell.Seed {
			t.Errorf("%s: cell %d coordinates differ: %+v vs %+v", label, i, got[i].Cell, want[i].Cell)
		}
		if len(got[i].Estimates) != len(want[i].Estimates) {
			t.Fatalf("%s: cell %d: %d estimates, want %d", label, i, len(got[i].Estimates), len(want[i].Estimates))
		}
		for j := range want[i].Estimates {
			g, w := got[i].Estimates[j], want[i].Estimates[j]
			if g.MTTF != w.MTTF || g.StdErr != w.StdErr || g.Seed != w.Seed {
				t.Errorf("%s: cell %d estimate %d: %+v != %+v", label, i, j, g, w)
			}
		}
	}
}

// TestMTTFBitIdenticalToDirect: the client round-trip changes nothing —
// a served estimate equals the in-process query bit for bit.
func TestMTTFBitIdenticalToDirect(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Config{}))
	defer srv.Close()
	c := New(Config{BaseURL: srv.URL, HTTPClient: srv.Client()})

	spec := testSpec(1e6)
	got, err := c.MTTF(context.Background(), spec, "montecarlo",
		Options{Query: soferr.Query{Trials: 5000, Seed: 3, Engine: soferr.Fused}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithTrials(5000), soferr.WithSeed(3), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate.MTTF != want.MTTF || got.Estimate.StdErr != want.StdErr {
		t.Errorf("client estimate %+v != direct %+v", got.Estimate, want)
	}
	if got.SpecHash != spec.Hash() {
		t.Errorf("spec hash %q != %q", got.SpecHash, spec.Hash())
	}

	// A permanent failure surfaces as a structured *APIError, untried.
	if _, err := c.MTTF(context.Background(), spec, "no-such-method", Options{}); err == nil {
		t.Error("bad method did not fail")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("bad method error = %v, want *APIError with 400", err)
	}
}

// TestRetriesOverloadNotClientErrors: 503s are retried with backoff
// until the server recovers; 4xx responses are returned immediately.
func TestRetriesOverloadNotClientErrors(t *testing.T) {
	real := server.New(server.Config{})
	var calls atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"status":503,"message":"busy"}}`))
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	c := New(Config{BaseURL: proxy.URL, HTTPClient: proxy.Client(),
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	got, err := c.MTTF(context.Background(), testSpec(1e6), "montecarlo", Options{Query: soferr.Query{Trials: 500, Seed: 1}})
	if err != nil {
		t.Fatalf("overload retries failed: %v", err)
	}
	if got.Estimate.Trials == 0 {
		t.Error("retried request returned an empty estimate")
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (2 overloads + success)", n)
	}

	// Exhausted retries surface the overload error.
	calls.Store(-1000)
	cFail := New(Config{BaseURL: proxy.URL, HTTPClient: proxy.Client(),
		MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if _, err := cFail.MTTF(context.Background(), testSpec(1e6), "montecarlo", Options{}); err == nil {
		t.Error("exhausted retries did not fail")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("exhausted-retries error = %v, want 503 APIError", err)
	}
}

// TestBackoffHonorsRetryAfter: the server's Retry-After hint floors the
// wait even when the exponential backoff would retry sooner.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	c := New(Config{BaseURL: "http://unused", BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if d := c.backoff(0, 1); d < time.Second {
		t.Errorf("backoff with Retry-After 1 = %v, want >= 1s", d)
	}
	if d := c.backoff(0, 0); d > 100*time.Millisecond {
		t.Errorf("backoff without hint = %v, want small", d)
	}
}

// TestSweepAutoSplit: a grid over the server's per-request cap is
// split into cursor pages sized by the advertised max_sweep_cells, and
// the reassembled result is bit-identical to an unpaged sweep.
func TestSweepAutoSplit(t *testing.T) {
	srv := httptest.NewServer(server.New(server.Config{MaxSweepCells: 3}))
	defer srv.Close()
	c := New(Config{BaseURL: srv.URL, HTTPClient: srv.Client()})

	got, err := c.Sweep(context.Background(), sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if got.Pages < 3 {
		t.Errorf("8-cell sweep under cap 3 used %d pages, want >= 3", got.Pages)
	}
	if got.Total != 8 {
		t.Errorf("total = %d, want 8", got.Total)
	}
	checkCells(t, "auto-split", got.Cells, directSweep(t))
}

// TestSweepStreamResumesAfterCut is the client half of the resumable-
// stream contract: a stream the server drops mid-page, or after its
// last cell line but before the terminator, is resumed from the last
// delivered index + 1, and the reassembled cell sequence is
// bit-identical to an uninterrupted sweep — each cell delivered exactly
// once, and none past a Limit window.
func TestSweepStreamResumesAfterCut(t *testing.T) {
	beforeTerminator := func(body []byte) int {
		return bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
	}
	for _, tc := range []struct {
		name string
		// cut returns how many bytes of the full stream body the first
		// attempt delivers before the connection drops.
		cut func(body []byte) int
		// limit is the request's Limit; 0 sweeps the whole grid.
		limit int64
		// resumes is whether the client must reconnect after the cut.
		resumes bool
	}{
		{"mid-page", func(body []byte) int {
			lines := 0
			for i, b := range body {
				if b == '\n' {
					lines++
					if lines == 3 {
						return i + 1
					}
				}
			}
			return len(body)
		}, 0, true},
		// Every cell line arrives but the done line does not, so the
		// client resumes at cursor == total.
		{"before-terminator", beforeTerminator, 0, true},
		// The window's last cell arrives but the done line does not: the
		// window is complete, and no resume may widen it to the grid.
		{"limit-before-terminator", beforeTerminator, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			real := server.New(server.Config{})
			var calls atomic.Int64
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					rec := httptest.NewRecorder()
					real.ServeHTTP(rec, r)
					body := rec.Body.Bytes()
					w.Header().Set("Content-Type", "application/x-ndjson")
					w.Write(body[:tc.cut(body)])
					// Flush first: the abort discards unflushed output, and
					// the client would then see no line at all.
					w.(http.Flusher).Flush()
					panic(http.ErrAbortHandler)
				}
				real.ServeHTTP(w, r)
			}))
			defer proxy.Close()

			c := New(Config{BaseURL: proxy.URL, HTTPClient: proxy.Client(),
				BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
			req := sweepReq()
			req.Limit = tc.limit
			var got []soferr.CellResult
			err := c.SweepStream(context.Background(), req, func(sc SweepCell) error {
				if sc.Err != "" {
					t.Errorf("cell %d carried error %q", sc.Cell.Index, sc.Err)
				}
				got = append(got, soferr.CellResult{Cell: sc.Cell, Estimates: sc.Estimates})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.resumes && calls.Load() < 2 {
				t.Error("stream was never cut; the resume path went unexercised")
			}
			want := directSweep(t)
			if tc.limit > 0 {
				want = want[:tc.limit]
			}
			checkCells(t, "resumed stream", got, want)
		})
	}
}

// TestSweepStreamStopsOnOwnDeadline: a stream whose own timeout_ms
// expires ends with the server's 504 or its deadline terminator, and
// SweepStream reports the deadline after one request instead of
// resending the same request until its retries run out.
func TestSweepStreamStopsOnOwnDeadline(t *testing.T) {
	real := server.New(server.Config{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := New(Config{BaseURL: srv.URL, HTTPClient: srv.Client(),
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	req := SweepRequest{
		Sources: []soferr.SourceSpec{
			{Name: "half", Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 5}},
		},
		RatesPerYear: []float64{1e4, 1e6},
		Methods:      []string{"montecarlo"},
		Query:        soferr.Query{Trials: 10_000_000},
		TimeoutMS:    1,
	}
	for i := 0; i < 10; i++ {
		calls.Store(0)
		cells := 0
		err := c.SweepStream(context.Background(), req, func(SweepCell) error {
			cells++
			return nil
		})
		var apiErr *APIError
		switch {
		case err == nil:
			if cells != 2 {
				t.Errorf("done after %d cells, want 2", cells)
			}
		case errors.As(err, &apiErr):
			if apiErr.Status != http.StatusGatewayTimeout || cells != 0 {
				t.Errorf("status %d after %d cells, want 504 before any: %v", apiErr.Status, cells, err)
			}
		case !errors.Is(err, context.DeadlineExceeded):
			t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
		case cells == 0:
			t.Errorf("deadline terminator with no cell line before it: %v", err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("sent %d requests, want 1 (err %v)", n, err)
		}
	}
}
