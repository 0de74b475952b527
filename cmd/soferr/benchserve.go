package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/server"
)

// serveBenchReport is the schema of BENCH_serve.json: end-to-end
// request latency through the query server, cold (the request compiles
// its Spec) versus cache-hit (the Spec's System — and, for repeated
// identical queries, the answer itself — is already compiled), recorded
// PR over PR like BENCH_mc.json.
type serveBenchReport struct {
	GoVersion string              `json:"go_version"`
	GOARCH    string              `json:"goarch"`
	Profiles  []serveBenchProfile `json:"profiles"`
}

// serveBenchProfile measures one request shape.
type serveBenchProfile struct {
	Name string `json:"name"`
	// ColdNsPerRequest is the latency of a request whose Spec is not in
	// the compiled-System LRU (each iteration uses a fresh Spec).
	ColdNsPerRequest float64 `json:"cold_ns_per_request"`
	// HitNsPerRequest is the latency of a repeated identical request:
	// compile cache hit plus query cache hit.
	HitNsPerRequest float64 `json:"hit_ns_per_request"`
	// Speedup is cold/hit: what compile-once-query-forever buys a
	// repeated Spec.
	Speedup float64 `json:"speedup_cold_vs_hit"`
}

// runServeBench measures the serving layer's cache contract on two
// request shapes: a Monte-Carlo query on a cheap synthetic Spec (cold
// cost ~ the query) and a deterministic query on a simulator-derived
// Spec with a large trace (cold cost ~ the compile). The benchmark
// drives real HTTP requests against an httptest server, so the
// recorded latencies include decoding, hashing, and encoding.
func runServeBench(ctx context.Context, stdout, stderr io.Writer, outPath string, verbose bool) error {
	logf := func(format string, args ...interface{}) {
		if verbose {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	comp := &soferr.Compiler{}
	srv := httptest.NewServer(server.New(server.Config{Compiler: comp, CacheSize: 64}))
	defer srv.Close()
	client := srv.Client()

	// Requests carry ctx so SIGINT aborts the benchmark loop like the
	// other bench phases.
	post := func(body map[string]interface{}) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/mttf", bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}

	busyIdleReq := func(rate float64) map[string]interface{} {
		return map[string]interface{}{
			"spec": soferr.Spec{Components: []soferr.ComponentSpec{{
				Name:        "batch",
				RatePerYear: rate,
				Trace:       soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 86400, BusySeconds: 3600},
			}}},
			"method": "montecarlo", "trials": 20000, "seed": 1, "engine": "fused",
		}
	}
	// The simulator-derived Spec: the compile (validation and
	// per-component precomputation over a many-segment trace) is the
	// dominant cold cost, and
	// the queried method is deterministic so the hit path measures pure
	// cache service. Instructions are pinned so the report is
	// self-describing; the one-time simulation itself is shared through
	// the compiler and excluded by warmup.
	specTraceReq := func(rate float64) map[string]interface{} {
		return map[string]interface{}{
			"spec": soferr.Spec{Components: []soferr.ComponentSpec{{
				Name:        "cpu",
				RatePerYear: rate,
				Trace: soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: "gzip",
					Instructions: 50000, SimSeed: 1},
			}}},
			"method": "avf+sofr",
		}
	}

	bench := func(name string, f func(i int) error) (float64, error) {
		logf("bench %s", name)
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f(i); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return 0, fmt.Errorf("bench %s: %w", name, benchErr)
		}
		if r.N == 0 {
			return 0, fmt.Errorf("bench %s: no iterations", name)
		}
		return float64(r.T.Nanoseconds()) / float64(r.N), nil
	}

	report := serveBenchReport{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
	profiles := []struct {
		name string
		req  func(rate float64) map[string]interface{}
		base float64
	}{
		{"mttf-montecarlo-busyidle", busyIdleReq, 1e4},
		{"mttf-avfsofr-spec-trace", specTraceReq, 1e5},
	}
	for _, p := range profiles {
		// Warm up the compiler's simulation cache (and the HTTP client)
		// so cold measures compile+query, not one-time setup.
		if err := post(p.req(p.base)); err != nil {
			return fmt.Errorf("bench %s warmup: %w", p.name, err)
		}
		// Distinct rates hash to distinct Specs, so every iteration
		// compiles; the offset keeps the grid clear of the warmup Spec.
		// The counter deliberately survives testing.Benchmark's
		// calibration reruns — resetting it would replay rates already
		// in the LRU and count cache hits as cold.
		coldIter := 0
		cold, err := bench(p.name+"/cold", func(int) error {
			coldIter++
			return post(p.req(p.base + 1 + float64(coldIter)*1e-3))
		})
		if err != nil {
			return err
		}
		hit, err := bench(p.name+"/hit", func(int) error {
			return post(p.req(p.base))
		})
		if err != nil {
			return err
		}
		prof := serveBenchProfile{
			Name:             p.name,
			ColdNsPerRequest: cold,
			HitNsPerRequest:  hit,
			Speedup:          cold / hit,
		}
		report.Profiles = append(report.Profiles, prof)
		fmt.Fprintf(stdout, "%-28s %14.0f ns/req cold %14.0f ns/req hit  (%.0fx)\n",
			p.name, prof.ColdNsPerRequest, prof.HitNsPerRequest, prof.Speedup)
	}

	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", outPath)
	}
	return nil
}
