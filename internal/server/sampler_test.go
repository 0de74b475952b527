package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/soferr/soferr"
)

// TestSamplerServed covers the sampler field end to end: a Sobol
// estimate over HTTP is bit-identical to the direct query, unknown
// sampler names and sampler-unsupported systems are 422s, and the
// per-endpoint sampler counters show up in /metrics.
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

	// Sobol on a system with a thinning fallback (a custom trace, which
	// no Spec kind produces) maps ErrSamplerUnsupported to 422 —
	// answerable with pcg, not as asked.
	if st := statusFor(fmt.Errorf("query: %w", soferr.ErrSamplerUnsupported)); st != http.StatusUnprocessableEntity {
		t.Errorf("ErrSamplerUnsupported: status %d, want 422", st)
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

	// /metrics labels the endpoint's queries by sampler: one sobol mttf
	// query resolved above (the halton one failed before resolving),
	// one pcg-by-default, and one sobol sweep.
	m := s.Metrics()
	if got := m.Samplers["mttf"]; got.Sobol != 1 || got.PCG != 1 {
		t.Errorf("mttf sampler counts = %+v, want {PCG:1 Sobol:1}", got)
	}
	if got := m.Samplers["sweep"]; got.Sobol != 1 {
		t.Errorf("sweep sampler counts = %+v, want Sobol:1", got)
	}
	if _, ok := m.Samplers["reliability"]; ok {
		t.Error("reliability endpoint has sampler counts; it never runs Monte-Carlo")
	}
}
