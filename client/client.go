// Package client is the Go client for the soferr query service
// (internal/server, started with `soferr serve`). It speaks the /v1
// JSON protocol and bakes in the retry discipline the server's failure
// model expects of callers:
//
//   - Transient failures — network errors and overload 503s — are
//     retried with exponential backoff and seeded jitter, honoring the
//     server's Retry-After hint as a floor on the wait.
//   - Permanent failures surface as *APIError carrying the structured
//     envelope (status, message, and machine-readable fields).
//   - Sweeps too large for one request are split automatically into
//     cursor/limit pages sized by the server's advertised
//     max_sweep_cells; the server enumerates per-cell seeds from
//     absolute grid indices, so the paged union is bit-identical to an
//     unpaged sweep.
//   - SweepStream consumes the NDJSON streaming mode and resumes a
//     truncated stream from the last delivered cell's index + 1,
//     again bit-identically.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/xrand"
)

// Defaults for Config zero values.
const (
	DefaultMaxRetries  = 4
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// Config tunes a Client. The zero value (plus a BaseURL) is a sensible
// production client.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts per logical request beyond the
	// first (default 4; negative disables retries).
	MaxRetries int
	// BaseBackoff is the first retry's backoff (default 100ms); waits
	// double per attempt up to MaxBackoff (default 5s) plus jitter, and
	// never undercut a server Retry-After hint.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter stream; 0 uses a fixed
	// default, so set it when many clients start in lockstep.
	JitterSeed uint64
}

// Client is a soferr query-service client. It is safe for concurrent
// use.
type Client struct {
	base    string
	httpc   *http.Client
	retries int
	backMin time.Duration
	backMax time.Duration

	mu  sync.Mutex
	rng *xrand.Rand
}

// New builds a Client from the config.
func New(cfg Config) *Client {
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	retries := cfg.MaxRetries
	if retries == 0 {
		retries = DefaultMaxRetries
	}
	if retries < 0 {
		retries = 0
	}
	backMin := cfg.BaseBackoff
	if backMin <= 0 {
		backMin = DefaultBaseBackoff
	}
	backMax := cfg.MaxBackoff
	if backMax <= 0 {
		backMax = DefaultMaxBackoff
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 0x5eed
	}
	return &Client{
		base:    strings.TrimRight(cfg.BaseURL, "/"),
		httpc:   httpc,
		retries: retries,
		backMin: backMin,
		backMax: backMax,
		rng:     xrand.New(seed),
	}
}

// APIError is a structured failure from the server: the /v1 error
// envelope plus the Retry-After hint. Retryable failures are consumed
// by the client's own retry loop; an APIError escaping to the caller is
// one retries cannot fix (or that exhausted them).
type APIError struct {
	Status  int
	Message string
	// RetryAfterSeconds is the server's back-off hint on overload
	// responses (from the envelope or the Retry-After header).
	RetryAfterSeconds int
	// MaxSweepCells and RequestedCells are set on sweep-cap overflows;
	// Sweep uses them to auto-split the grid.
	MaxSweepCells  int64
	RequestedCells int64
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// retryable reports whether the failure is worth resending: only
// overload (503) is, everything else is the request's or the server's
// permanent problem.
func (e *APIError) retryable() bool { return e.Status == http.StatusServiceUnavailable }

// Options are the estimate options shared by MTTF and Compare: the
// Monte-Carlo Query the server answers at, plus the request deadline.
type Options struct {
	soferr.Query
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MTTFResult is the /v1/mttf response.
type MTTFResult struct {
	SpecHash        string          `json:"spec_hash"`
	CompileCacheHit bool            `json:"compile_cache_hit"`
	CompileMS       float64         `json:"compile_ms"`
	Estimate        soferr.Estimate `json:"estimate"`
}

// MTTF runs one estimate. method "" means the server default
// (montecarlo).
func (c *Client) MTTF(ctx context.Context, spec soferr.Spec, method string, opt Options) (MTTFResult, error) {
	var out MTTFResult
	err := c.do(ctx, "/v1/mttf", nil, struct {
		Spec   soferr.Spec `json:"spec"`
		Method string      `json:"method,omitempty"`
		Options
	}{spec, method, opt}, &out)
	return out, err
}

// CompareResult is the /v1/compare response.
type CompareResult struct {
	SpecHash        string            `json:"spec_hash"`
	CompileCacheHit bool              `json:"compile_cache_hit"`
	CompileMS       float64           `json:"compile_ms"`
	Estimates       []soferr.Estimate `json:"estimates"`
}

// Compare runs several methods against one compiled system. nil
// methods means the server default (all three).
func (c *Client) Compare(ctx context.Context, spec soferr.Spec, methods []string, opt Options) (CompareResult, error) {
	var out CompareResult
	err := c.do(ctx, "/v1/compare", nil, struct {
		Spec    soferr.Spec `json:"spec"`
		Methods []string    `json:"methods,omitempty"`
		Options
	}{spec, methods, opt}, &out)
	return out, err
}

// Reliability queries the survival probability at t seconds.
func (c *Client) Reliability(ctx context.Context, spec soferr.Spec, tSeconds float64) (float64, error) {
	var out struct {
		Reliability soferr.JSONFloat `json:"reliability"`
	}
	err := c.do(ctx, "/v1/reliability", nil, struct {
		Spec     soferr.Spec `json:"spec"`
		TSeconds float64     `json:"t_seconds"`
	}{spec, tSeconds}, &out)
	return float64(out.Reliability), err
}

// Quantile queries the failure-time quantile at probability p.
func (c *Client) Quantile(ctx context.Context, spec soferr.Spec, p float64) (float64, error) {
	var out struct {
		TSeconds soferr.JSONFloat `json:"t_seconds"`
	}
	err := c.do(ctx, "/v1/quantile", nil, struct {
		Spec soferr.Spec `json:"spec"`
		P    float64     `json:"p"`
	}{spec, p}, &out)
	return float64(out.TSeconds), err
}

// SweepRequest mirrors the server's /v1/sweep request body. The Query
// applies to every cell, and its Seed is the grid's base seed. Cursor
// and Limit select a window of the grid (both zero = the whole grid);
// the paging the client does on top never changes per-cell seeds,
// because the server derives them from absolute grid indices.
type SweepRequest struct {
	Name         string              `json:"name,omitempty"`
	Sources      []soferr.SourceSpec `json:"sources"`
	RatesPerYear []float64           `json:"rates_per_year"`
	Counts       []int               `json:"counts,omitempty"`
	Methods      []string            `json:"methods,omitempty"`
	soferr.Query
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Cursor    int64 `json:"cursor,omitempty"`
	Limit     int64 `json:"limit,omitempty"`
}

// SweepResult is the collected sweep outcome: every requested cell in
// absolute-index order. When the client auto-split the request, Pages
// counts the server round-trips it took.
type SweepResult struct {
	Name  string              `json:"name,omitempty"`
	Cells []soferr.CellResult `json:"cells"`
	Total int64               `json:"total"`
	Pages int                 `json:"pages"`
}

// sweepPage is the server's per-request response shape.
type sweepPage struct {
	Name       string              `json:"name"`
	Cells      []soferr.CellResult `json:"cells"`
	Count      int                 `json:"count"`
	Cursor     int64               `json:"cursor"`
	NextCursor int64               `json:"next_cursor"`
	Total      int64               `json:"total"`
}

// Sweep evaluates the requested grid window, splitting it into
// cursor/limit pages automatically when the server refuses it with a
// max_sweep_cells overflow. The assembled result is bit-identical to a
// single-request sweep of the same window.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepResult, error) {
	var out SweepResult
	cursor := req.Cursor
	end := int64(-1) // exclusive window end; -1 = to the grid's end
	if req.Limit > 0 {
		end = req.Cursor + req.Limit
	}
	pageLimit := int64(0) // 0 = not paging (yet)
	for {
		r := req
		r.Cursor = cursor
		r.Limit = pageLimit
		if end >= 0 && (pageLimit == 0 || end-cursor < pageLimit) {
			r.Limit = end - cursor
		}
		var page sweepPage
		err := c.do(ctx, "/v1/sweep", nil, r, &page)
		if apiErr, ok := err.(*APIError); ok && pageLimit == 0 && apiErr.MaxSweepCells > 0 &&
			apiErr.RequestedCells > apiErr.MaxSweepCells {
			// The window exceeds the per-request cap: page at the size
			// the server advertised. (A second overflow means the grid
			// exceeds the server's enumerable bound — not splittable —
			// and is returned as-is above since pageLimit is now set.)
			pageLimit = apiErr.MaxSweepCells
			continue
		}
		if err != nil {
			return out, err
		}
		out.Name = page.Name
		out.Total = page.Total
		out.Cells = append(out.Cells, page.Cells...)
		out.Pages++
		if page.NextCursor == 0 || (end >= 0 && page.NextCursor >= end) {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// SweepCell is one NDJSON stream line: a cell with either its
// estimates or its error string.
type SweepCell struct {
	Cell      soferr.Cell       `json:"cell"`
	Estimates []soferr.Estimate `json:"estimates,omitempty"`
	Err       string            `json:"error,omitempty"`
}

// streamLine decodes result and terminator lines alike. Done is nil on
// a cell line, true on the done line, and false on the terminator of a
// page whose own deadline expired, whose Err names the deadline.
type streamLine struct {
	SweepCell
	Done *bool `json:"done"`
}

// SweepStream consumes the sweep's NDJSON streaming mode, calling fn
// once per cell in absolute-index order. A stream cut before its
// {"done":true} terminator — a dropped connection, a crashed-and-
// restarted server — is resumed from the last delivered cell's
// index + 1; the server re-enumerates the grid, so the resumed tail is
// bit-identical to what the uninterrupted stream would have carried.
// A sweep that outlives its own timeout is not resumed, since the
// resent request would meet the same deadline: the error wraps
// context.DeadlineExceeded when the stream ended on the server's
// deadline terminator, and is an *APIError with status 504 when the
// deadline passed before the first cell.
// fn returning an error aborts the stream with that error.
func (c *Client) SweepStream(ctx context.Context, req SweepRequest, fn func(SweepCell) error) error {
	cursor := req.Cursor
	end := int64(-1)
	if req.Limit > 0 {
		end = req.Cursor + req.Limit
	}
	stalls := 0
	for attempt := 0; ; attempt++ {
		if end >= 0 && cursor >= end {
			// Every cell of the window arrived and only the terminator
			// was cut. Resuming would send Limit 0, which the server
			// reads as no limit.
			return nil
		}
		r := req
		r.Cursor = cursor
		r.Limit = 0
		if end >= 0 {
			r.Limit = end - cursor
		}
		next, done, err := c.streamOnce(ctx, r, fn)
		if done {
			return err
		}
		if err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && !apiErr.retryable() {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		// Truncated (or refused with overload): resume from where the
		// stream stopped. Progress resets the retry budget — only
		// consecutive no-progress attempts count against it.
		if next > cursor {
			cursor = next
			stalls = 0
		} else {
			stalls++
			if stalls > c.retries {
				if err == nil {
					err = fmt.Errorf("stream truncated at cursor %d", cursor)
				}
				return fmt.Errorf("client: sweep stream stalled after %d attempts: %w", stalls, err)
			}
		}
		retryAfter := 0
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			retryAfter = apiErr.RetryAfterSeconds
		}
		if serr := c.sleep(ctx, c.backoff(stalls, retryAfter)); serr != nil {
			return serr
		}
	}
}

// streamOnce runs one streaming request. next is the cursor to resume
// from (last delivered index + 1, or the unchanged cursor when nothing
// arrived); done reports that a terminator line was seen, with err
// naming the deadline when it was the deadline terminator.
func (c *Client) streamOnce(ctx context.Context, req SweepRequest, fn func(SweepCell) error) (next int64, done bool, err error) {
	next = req.Cursor
	data, err := json.Marshal(req)
	if err != nil {
		return next, false, fmt.Errorf("client: encode request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sweep?stream=ndjson", bytes.NewReader(data))
	if err != nil {
		return next, false, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(httpReq)
	if err != nil {
		return next, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return next, false, parseAPIError(resp, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			// A malformed line usually means it was cut mid-write:
			// treat as truncation and resume before it.
			return next, false, fmt.Errorf("client: bad stream line: %w", err)
		}
		if line.Done != nil {
			if !*line.Done {
				return next, true, fmt.Errorf("client: sweep stopped at cursor %d by its own deadline: %w", next, context.DeadlineExceeded)
			}
			return next, true, nil
		}
		if err := fn(line.SweepCell); err != nil {
			return next, false, err
		}
		next = int64(line.Cell.Index) + 1
	}
	// EOF without the terminator: truncated.
	return next, false, sc.Err()
}

// do runs one JSON POST with the retry discipline: network errors and
// overload 503s back off (honoring Retry-After) and resend, anything
// else returns immediately — 200 decoded into out, failures as
// *APIError.
func (c *Client) do(ctx context.Context, path string, query url.Values, body, out interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.httpc.Do(req)
		var respBody []byte
		if err == nil {
			respBody, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if attempt >= c.retries {
				return fmt.Errorf("client: %s: %w (after %d attempts)", path, err, attempt+1)
			}
			if serr := c.sleep(ctx, c.backoff(attempt, 0)); serr != nil {
				return serr
			}
			continue
		}
		if resp.StatusCode == http.StatusOK {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(respBody, out); err != nil {
				return fmt.Errorf("client: decode %s response: %w", path, err)
			}
			return nil
		}
		apiErr := parseAPIError(resp, respBody)
		if apiErr.retryable() && attempt < c.retries {
			if serr := c.sleep(ctx, c.backoff(attempt, apiErr.RetryAfterSeconds)); serr != nil {
				return serr
			}
			continue
		}
		return apiErr
	}
}

// parseAPIError lifts a non-200 response into an *APIError, preferring
// the structured envelope and falling back to the raw body.
func parseAPIError(resp *http.Response, body []byte) *APIError {
	var envelope struct {
		Error struct {
			Status            int    `json:"status"`
			Message           string `json:"message"`
			RetryAfterSeconds int    `json:"retry_after_seconds"`
			MaxSweepCells     int64  `json:"max_sweep_cells"`
			RequestedCells    int64  `json:"requested_cells"`
		} `json:"error"`
	}
	apiErr := &APIError{Status: resp.StatusCode}
	if json.Unmarshal(body, &envelope) == nil && envelope.Error.Status != 0 {
		apiErr.Message = envelope.Error.Message
		apiErr.RetryAfterSeconds = envelope.Error.RetryAfterSeconds
		apiErr.MaxSweepCells = envelope.Error.MaxSweepCells
		apiErr.RequestedCells = envelope.Error.RequestedCells
	} else {
		apiErr.Message = strings.TrimSpace(string(body))
	}
	if apiErr.RetryAfterSeconds == 0 {
		if v := resp.Header.Get("Retry-After"); v != "" {
			fmt.Sscanf(v, "%d", &apiErr.RetryAfterSeconds)
		}
	}
	return apiErr
}

// backoff computes the wait before retry attempt (0-based): the doubled
// base, capped, plus up to 50% seeded jitter — never below the server's
// Retry-After hint.
func (c *Client) backoff(attempt, retryAfterSeconds int) time.Duration {
	d := c.backMin
	for i := 0; i < attempt && d < c.backMax; i++ {
		d *= 2
	}
	if d > c.backMax {
		d = c.backMax
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Float64() * float64(d) * 0.5)
	c.mu.Unlock()
	d += jitter
	if hint := time.Duration(retryAfterSeconds) * time.Second; d < hint {
		d = hint
	}
	return d
}

// sleep waits d or until ctx ends.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
