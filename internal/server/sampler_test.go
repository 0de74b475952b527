package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/soferr/soferr"
)

// TestSamplerServed covers the sampler field end to end: a Sobol
// estimate over HTTP is bit-identical to the direct query, unknown
// sampler names and sampler-unsupported systems are 422s, and the
// per-endpoint sampler counters show up in /metrics, counting what ran.
func TestSamplerServed(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	spec := testSpec(1e6)
	resp, body := post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "montecarlo",
		"trials": 5000, "seed": 3, "engine": "fused", "sampler": "sobol",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got mttfResponse
	mustUnmarshal(t, body, &got)
	if got.Estimate.Sampler != soferr.Sobol {
		t.Errorf("served sampler = %v, want Sobol", got.Estimate.Sampler)
	}
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.MTTF(context.Background(), soferr.MonteCarlo,
		soferr.WithTrials(5000), soferr.WithSeed(3),
		soferr.WithEngine(soferr.Fused), soferr.WithSampler(soferr.Sobol))
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate.MTTF != want.MTTF || got.Estimate.StdErr != want.StdErr ||
		got.Estimate.Trials != want.Trials {
		t.Errorf("served Sobol estimate differs from direct query:\n http   %+v\n direct %+v", got.Estimate, want)
	}

	// Unknown sampler names are semantically unanswerable: 422, named.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "montecarlo", "sampler": "halton",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown sampler: status %d, want 422: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "halton") {
		t.Errorf("unknown-sampler error does not name the sampler: %s", body)
	}

	// The sweep endpoint threads the same field through every cell.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/sweep", map[string]interface{}{
		"sources": []soferr.SourceSpec{{
			Name:  "cache",
			Trace: soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: 10, BusySeconds: 4},
		}},
		"rates_per_year": []float64{1e6},
		"methods":        []string{"montecarlo"},
		"trials":         2000, "engine": "fused", "sampler": "sobol",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sw sweepResponse
	mustUnmarshal(t, body, &sw)
	if len(sw.Cells) != 1 || len(sw.Cells[0].Estimates) != 1 {
		t.Fatalf("sweep shape: %+v", sw)
	}
	if sw.Cells[0].Estimates[0].Sampler != soferr.Sobol {
		t.Errorf("sweep cell sampler = %v, want Sobol", sw.Cells[0].Estimates[0].Sampler)
	}

	// A default-sampler query counts under the pcg label.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "montecarlo", "trials": 1000, "seed": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-sampler status %d: %s", resp.StatusCode, body)
	}

	// An adaptive query naming no sampler runs Sobol and counts there.
	resp, body = post(t, srv.Client(), srv.URL+"/v1/mttf", map[string]interface{}{
		"spec": spec, "method": "montecarlo", "seed": 1, "target_rel_stderr": 0.01,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-sampler adaptive status %d: %s", resp.StatusCode, body)
	}

	// /metrics counts the endpoint's estimates by the sampler that ran:
	// the explicit sobol mttf query above (the halton one failed before
	// running), one pcg-by-default fixed query, one sobol-by-default
	// adaptive query, and one sobol sweep.
	m := s.Metrics()
	if got := m.Samplers["mttf"]; got.Sobol != 2 || got.PCG != 1 {
		t.Errorf("mttf sampler counts = %+v, want {PCG:1 Sobol:2}", got)
	}
	if got := m.Samplers["sweep"]; got.Sobol != 1 {
		t.Errorf("sweep sampler counts = %+v, want Sobol:1", got)
	}
	if _, ok := m.Samplers["reliability"]; ok {
		t.Error("reliability endpoint has sampler counts; it never runs Monte-Carlo")
	}
}

// TestDefaultSamplerServed is the HTTP half of the default-sampler
// table: a request with no sampler reports the sampler it ran — sobol
// for an adaptive request with a cap of at least 4,096 trials, pcg for
// a fixed one or a lower cap — and is bit-identical to the request
// naming that sampler.
func TestDefaultSamplerServed(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	busyIdle := func(period, busy float64) soferr.TraceSpec {
		return soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: period, BusySeconds: busy}
	}
	specs := map[string]soferr.Spec{
		"merged": {Components: []soferr.ComponentSpec{
			{RatePerYear: 3e3, Trace: soferr.TraceSpec{Kind: soferr.TraceKindPeriodic, PeriodSeconds: 3600,
				Intervals: []soferr.Interval{{Start: 300, End: 600}, {Start: 900, End: 1500}}}},
			{RatePerYear: 2e3, Trace: busyIdle(7200, 1080)},
		}},
		"incommensurate": {Components: []soferr.ComponentSpec{
			{RatePerYear: 3e3, Trace: busyIdle(3600, 1200)},
			{RatePerYear: 2e3, Trace: busyIdle(3600*math.Sqrt2, 1800)},
		}},
		"combined": {Components: []soferr.ComponentSpec{
			{RatePerYear: 1e5, Trace: soferr.TraceSpec{Kind: soferr.TraceKindCombined}},
			{RatePerYear: 1e3, Trace: busyIdle(3600, 1000)},
		}},
	}
	fixed := map[string]interface{}{"seed": 2, "trials": 8192}
	adaptive := map[string]interface{}{"seed": 2, "target_rel_stderr": 0.01}
	lowCap := map[string]interface{}{"seed": 2, "target_rel_stderr": 0.01, "trials": 4095}
	for _, tt := range []struct {
		spec  string
		query map[string]interface{}
		want  string
	}{
		{"merged", fixed, "pcg"},
		{"merged", adaptive, "sobol"},
		{"merged", lowCap, "pcg"},
		{"incommensurate", fixed, "pcg"},
		{"incommensurate", adaptive, "sobol"},
		{"combined", fixed, "pcg"},
		{"combined", adaptive, "sobol"},
	} {
		answer := func(sampler string) soferr.Estimate {
			body := map[string]interface{}{"spec": specs[tt.spec], "method": "montecarlo"}
			for k, v := range tt.query {
				body[k] = v
			}
			if sampler != "" {
				body["sampler"] = sampler
			}
			resp, data := post(t, srv.Client(), srv.URL+"/v1/mttf", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %v sampler %q: status %d: %s", tt.spec, tt.query, sampler, resp.StatusCode, data)
			}
			var out mttfResponse
			mustUnmarshal(t, data, &out)
			return out.Estimate
		}
		got, named := answer(""), answer(tt.want)
		if got.Sampler.String() != tt.want || got.MTTF != named.MTTF || got.StdErr != named.StdErr || got.Trials != named.Trials {
			t.Errorf("%s %v: default answered %+v, want the %s answer %+v", tt.spec, tt.query, got, tt.want, named)
		}
	}
}
