package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/client"
)

// TestDefaultEngineIsFusedEverywhere: one Spec, trial count and seed,
// sent without an engine through every entry point — the library, the
// HTTP server, the Go client, `soferr run spec.json`, and a one-cell
// `soferr sweep` — returns the same Fused estimate bit for bit.
func TestDefaultEngineIsFusedEverywhere(t *testing.T) {
	const trials, seed = 4096, 7
	specJSON := map[string]interface{}{
		"components": []map[string]interface{}{{
			"name": "cpu", "rate_per_year": 1e4, "trace": map[string]interface{}{"kind": "day"},
		}},
	}
	data, err := json.Marshal(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	var spec soferr.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	direct := func(seed uint64) soferr.Estimate {
		t.Helper()
		est, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithTrials(trials), soferr.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	want := direct(seed)
	if want.Engine != soferr.Fused {
		t.Fatalf("System.MTTF default engine = %v, want fused", want.Engine)
	}
	check := func(label string, got, want soferr.Estimate) {
		t.Helper()
		if got.Engine != soferr.Fused || got.MTTF != want.MTTF || got.StdErr != want.StdErr ||
			got.Trials != want.Trials || got.Seed != want.Seed {
			t.Errorf("%s: %+v, want the System.MTTF estimate %+v", label, got, want)
		}
	}

	url, stop := startServe(t)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("serve returned %v", err)
		}
	}()
	status, body := postJSON(t, url+"/v1/mttf", map[string]interface{}{
		"spec": specJSON, "method": "montecarlo", "trials": trials, "seed": seed,
	})
	if status != 200 {
		t.Fatalf("POST /v1/mttf status %d: %s", status, body)
	}
	var served struct {
		Estimate soferr.Estimate `json:"estimate"`
	}
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	check("POST /v1/mttf", served.Estimate, want)

	res, err := client.New(client.Config{BaseURL: url}).MTTF(ctx, spec, "montecarlo",
		client.Options{Query: soferr.Query{Trials: trials, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	check("client", res.Estimate, want)

	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "run", path, "-trials", "4096", "-seed", "7", "-methods", "mc", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var ran struct {
		Estimates []soferr.Estimate `json:"estimates"`
	}
	if err := json.Unmarshal([]byte(out), &ran); err != nil || len(ran.Estimates) != 1 {
		t.Fatalf("run output (%v):\n%s", err, out)
	}
	check("soferr run spec.json", ran.Estimates[0], want)

	out, _, err = runCLI(t, "sweep", "-workloads", "day", "-rates", "1e4", "-methods", "montecarlo",
		"-trials", "4096", "-seed", "7", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var swept struct {
		Cells []soferr.CellResult `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &swept); err != nil || len(swept.Cells) != 1 || len(swept.Cells[0].Estimates) != 1 {
		t.Fatalf("sweep output (%v):\n%s", err, out)
	}
	cell := swept.Cells[0]
	check("soferr sweep", cell.Estimates[0], direct(cell.Cell.Seed))
}

// TestRemovedEngineNamesRejected: the engine names cut from the
// package fall through to the unknown-engine error, which names the
// valid engines, wherever a name is parsed.
func TestRemovedEngineNamesRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	data, err := json.Marshal(busyIdleSpecJSON(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	url, stop := startServe(t)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("serve returned %v", err)
		}
	}()
	namesValid := func(msg string) bool {
		return strings.Contains(msg, "fused") && strings.Contains(msg, "exact")
	}
	for _, name := range []string{"superposed", "naive", "inverted"} {
		if _, err := soferr.EngineByName(name); err == nil || !namesValid(err.Error()) {
			t.Errorf("EngineByName(%q) err = %v", name, err)
		}
		for _, args := range [][]string{
			{"run", "fig4", "-quick", "-engine", name},
			{"run", path, "-trials", "2000", "-engine", name},
			{"sweep", "-duty", "0.5", "-rates", "10", "-methods", "montecarlo", "-engine", name},
		} {
			if _, _, err := runCLI(t, args...); err == nil || !namesValid(err.Error()) {
				t.Errorf("soferr %s: err = %v", strings.Join(args, " "), err)
			}
		}
		status, body := postJSON(t, url+"/v1/mttf", map[string]interface{}{
			"spec": busyIdleSpecJSON(1e6), "method": "montecarlo", "engine": name,
		})
		if status != 400 || !namesValid(string(body)) {
			t.Errorf("POST /v1/mttf engine %q: status %d: %s", name, status, body)
		}
		doc := `{"method":"montecarlo","mttf_seconds":1,"fit":1,"engine":"` + name + `"}`
		var est soferr.Estimate
		if err := json.Unmarshal([]byte(doc), &est); err == nil || !namesValid(err.Error()) {
			t.Errorf("Estimate.UnmarshalJSON engine %q: err = %v", name, err)
		}
	}
}
