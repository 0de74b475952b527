package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/soferr/soferr/internal/faultinject"
)

// syncBuffer is a threadsafe io.Writer: runServe writes to it from the
// command goroutine while the test polls it for the bound address.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var urlRE = regexp.MustCompile(`http://[0-9.:]+`)

// startServe launches `soferr serve` on a free port and returns its
// base URL plus a shutdown function that cancels the command and
// returns its error.
func startServe(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout := &syncBuffer{}
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(ctx, args, stdout, stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	var url string
	for url == "" {
		if m := urlRE.FindString(stdout.String()); m != "" {
			url = m
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before binding: %v (stderr: %s)", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never printed its address (stdout: %q)", stdout.String())
		}
		time.Sleep(time.Millisecond)
	}
	return url, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(60 * time.Second):
			t.Fatal("serve did not stop after cancellation")
			return nil
		}
	}
}

func postJSON(t *testing.T, url string, body map[string]interface{}) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func busyIdleSpecJSON(rate float64) map[string]interface{} {
	return map[string]interface{}{
		"components": []map[string]interface{}{{
			"name":          "cache",
			"rate_per_year": rate,
			"trace":         map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 4},
		}},
	}
}

// TestServeEndToEnd boots the real subcommand, queries it, and shuts it
// down cleanly with a query in flight — the CLI-level acceptance test
// for `soferr serve`.
func TestServeEndToEnd(t *testing.T) {
	url, stop := startServe(t)

	// healthz answers.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// A served MTTF query succeeds and carries the estimate.
	status, body := postJSON(t, url+"/v1/mttf", map[string]interface{}{
		"spec": busyIdleSpecJSON(1e6), "method": "montecarlo",
		"trials": 2000, "seed": 3, "engine": "fused",
	})
	if status != http.StatusOK {
		t.Fatalf("mttf status %d: %s", status, body)
	}
	var mttfResp struct {
		SpecHash string `json:"spec_hash"`
		Estimate struct {
			MTTF float64 `json:"mttf_seconds"`
		} `json:"estimate"`
	}
	if err := json.Unmarshal(body, &mttfResp); err != nil {
		t.Fatalf("mttf response invalid: %v\n%s", err, body)
	}
	if !(mttfResp.Estimate.MTTF > 0) || !strings.HasPrefix(mttfResp.SpecHash, "sha256:") {
		t.Errorf("mttf response malformed: %s", body)
	}

	// A served sweep succeeds.
	status, body = postJSON(t, url+"/v1/sweep", map[string]interface{}{
		"sources": []map[string]interface{}{{
			"name":  "half",
			"trace": map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 5},
		}},
		"rates_per_year": []float64{10, 1e4},
		"methods":        []string{"avf+sofr"},
	})
	if status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", status, body)
	}
	var sweepResp struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &sweepResp); err != nil || sweepResp.Count != 2 {
		t.Fatalf("sweep response malformed (%v): %s", err, body)
	}

	// Fire a slow query (an injected 100ms delay on every trial block),
	// then cancel the command while it runs: the query must complete
	// (graceful drain) and the command exit nil.
	defer faultinject.Arm(faultinject.Schedule{Rules: []faultinject.Rule{
		{Point: "montecarlo.trial", Delay: 100 * time.Millisecond},
	}})()
	slow := make(chan error, 1)
	slowStatus := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(map[string]interface{}{
			"spec": map[string]interface{}{
				"components": []map[string]interface{}{{
					"rate_per_year": 1e4,
					"trace":         map[string]interface{}{"kind": "busyidle", "period_seconds": 86400, "busy_seconds": 43200},
				}},
			},
			"method": "montecarlo", "trials": 20000,
		})
		resp, err := http.Post(url+"/v1/mttf", "application/json", bytes.NewReader(data))
		if err != nil {
			slow <- err
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		slowStatus <- resp.StatusCode
		slow <- nil
	}()
	time.Sleep(50 * time.Millisecond) // let the query reach the server
	if err := stop(); err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if err := <-slow; err != nil {
		t.Fatalf("in-flight query failed across shutdown: %v", err)
	}
	if st := <-slowStatus; st != http.StatusOK {
		t.Fatalf("in-flight query status %d", st)
	}
}

func TestServeBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"serve", "-addr", "not-an-address"}, &out, &errOut); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := run(context.Background(), []string{"serve", "-bogus"}, &out, &errOut); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunSpecFile covers `soferr run <spec.json>`: the file-supplied
// side of the shared Spec code path.
func TestRunSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "system.json")
	spec := busyIdleSpecJSON(1e6)
	spec["name"] = "batch"
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out, _, err := runCLI(t, "run", path, "-trials", "2000")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spec batch", "avf+sofr", "montecarlo", "softarch", "MTTF"} {
		if !strings.Contains(out, want) {
			t.Errorf("spec-file output missing %q:\n%s", want, out)
		}
	}

	// JSON output is typed and carries the spec hash.
	out, _, err = runCLI(t, "run", path, "-trials", "2000", "-json", "-methods", "MC,softarch")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name      string `json:"name"`
		SpecHash  string `json:"spec_hash"`
		Estimates []struct {
			Method string  `json:"method"`
			MTTF   float64 `json:"mttf_seconds"`
		} `json:"estimates"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("spec-file -json invalid: %v\n%s", err, out)
	}
	if doc.Name != "batch" || !strings.HasPrefix(doc.SpecHash, "sha256:") || len(doc.Estimates) != 2 {
		t.Errorf("spec-file -json malformed: %+v", doc)
	}
	if doc.Estimates[0].Method != "montecarlo" || doc.Estimates[1].Method != "softarch" {
		t.Errorf("methods = %+v", doc.Estimates)
	}

	// Bad files fail loudly.
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"components": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "run", badPath); err == nil {
		t.Error("empty-component spec file accepted")
	}
	typoPath := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typoPath, []byte(`{"component": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "run", typoPath); err == nil {
		t.Error("unknown-field spec file accepted")
	}
	if _, _, err := runCLI(t, "run", filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestRunSpecFileSamplerFlag covers `-sampler` on the spec-file path:
// sobol runs thread through to the estimate (and its JSON), and
// unknown names fail loudly.
func TestRunSpecFileSamplerFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "system.json")
	data, err := json.Marshal(busyIdleSpecJSON(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "run", path, "-trials", "2000", "-engine", "fused",
		"-sampler", "sobol", "-json", "-methods", "MC")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"sobol"`) {
		t.Errorf("-json output does not record the sobol sampler:\n%s", out)
	}
	if _, _, err := runCLI(t, "run", path, "-sampler", "halton"); err == nil ||
		!strings.Contains(err.Error(), "halton") {
		t.Errorf("unknown sampler: err = %v, want rejection naming halton", err)
	}
}

// TestRunRejectsInapplicableFlags: `run` refuses a flag its argument
// cannot use, naming the flag, instead of silently ignoring it: the
// Spec-only flags on an experiment id (or all), and -quick on a Spec
// file. The same flags still work where they apply.
func TestRunRejectsInapplicableFlags(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "system.json")
	data, err := json.Marshal(busyIdleSpecJSON(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"run", "fig3", "-sampler", "sobol"}, "-sampler"},
		{[]string{"run", "fig3", "-target-rse", "0.5"}, "-target-rse"},
		{[]string{"run", "fig3", "-methods", "bogus"}, "-methods"},
		{[]string{"run", "all", "-quick", "-methods", "mc"}, "-methods"},
		{[]string{"run", path, "-quick"}, "-quick"},
	} {
		if _, _, err := runCLI(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want rejection naming %s", tc.args[1:], err, tc.flag)
		}
	}
	if _, _, err := runCLI(t, "run", path, "-trials", "2000", "-sampler", "sobol", "-target-rse", "0.5", "-methods", "mc"); err != nil {
		t.Errorf("Spec-file flags on a Spec file: %v", err)
	}
	if _, _, err := runCLI(t, "run", "fig4", "-quick"); err != nil {
		t.Errorf("-quick on an experiment: %v", err)
	}
}

// TestRunExperimentIDWinsOverFile: a stray file in the working
// directory named after an experiment id must not shadow the
// experiment.
func TestRunExperimentIDWinsOverFile(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"fig4", "all"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a spec"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	out, _, err := runCLI(t, "run", "fig4", "-quick")
	if err != nil {
		t.Fatalf("file named fig4 shadowed the experiment: %v", err)
	}
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "rel err") {
		t.Errorf("fig4 output malformed:\n%s", out)
	}
}

// TestRunSpecFileNeverFailing: a Spec whose system can never fail
// compares cleanly end to end — exit 0 with "+Inf" MTTFs, not an
// error (the CLI leg of the no-failure bugfix).
func TestRunSpecFileNeverFailing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "never.json")
	spec := map[string]interface{}{
		"name": "idle",
		"components": []map[string]interface{}{{
			"name":          "idle",
			"rate_per_year": 5,
			"trace":         map[string]interface{}{"kind": "busyidle", "period_seconds": 10, "busy_seconds": 0},
		}},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "run", path, "-trials", "100")
	if err != nil {
		t.Fatalf("never-failing spec errored: %v", err)
	}
	if !strings.Contains(out, "+Inf") {
		t.Errorf("never-failing spec output lacks +Inf:\n%s", out)
	}
	for _, want := range []string{"avf+sofr", "montecarlo", "softarch"} {
		if !strings.Contains(out, want) {
			t.Errorf("never-failing spec output missing %q:\n%s", want, out)
		}
	}
	// The JSON form round-trips the infinite MTTFs as "+Inf" strings.
	out, _, err = runCLI(t, "run", path, "-trials", "100", "-json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"+Inf"`) {
		t.Errorf("JSON output lacks \"+Inf\":\n%s", out)
	}
}

// TestRunSpecFileAdaptiveTarget covers the -target-rse flag: the
// Monte-Carlo estimate records the target and stops below the trial
// cap.
func TestRunSpecFileAdaptiveTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "system.json")
	data, err := json.Marshal(busyIdleSpecJSON(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "run", path, "-methods", "mc", "-engine", "fused", "-target-rse", "0.02", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Estimates []struct {
			Method string  `json:"method"`
			Trials int     `json:"trials"`
			Engine string  `json:"engine"`
			Target float64 `json:"target_rel_stderr"`
		} `json:"estimates"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(doc.Estimates) != 1 {
		t.Fatalf("estimates = %+v", doc.Estimates)
	}
	est := doc.Estimates[0]
	if est.Engine != "fused" || est.Target != 0.02 {
		t.Errorf("estimate = %+v, want fused engine with target 0.02", est)
	}
	if est.Trials <= 0 || est.Trials >= 200000 {
		t.Errorf("adaptive trials = %d, want (0, 200000)", est.Trials)
	}
}

// TestSweepServerMode covers `soferr sweep -server`: the client-mode
// sweep must render bit-identical output to the in-process path, and
// -cursor must resume from an absolute cell index without changing the
// tail.
func TestSweepServerMode(t *testing.T) {
	url, stop := startServe(t)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("serve returned %v", err)
		}
	}()

	gridArgs := []string{
		"sweep", "-duty", "0.5", "-rates", "10,1e4", "-counts", "1,2",
		"-methods", "avf+sofr,mc", "-trials", "2000", "-seed", "7", "-csv",
	}
	local, _, err := runCLI(t, gridArgs...)
	if err != nil {
		t.Fatal(err)
	}
	served, _, err := runCLI(t, append(gridArgs, "-server", url)...)
	if err != nil {
		t.Fatal(err)
	}
	if served != local {
		t.Errorf("-server output differs from local:\n--- local ---\n%s--- served ---\n%s", local, served)
	}

	// Every query flag reaches the server: the same grid under the Sobol
	// sampler is byte-identical served and local, and differs from PCG.
	sobolArgs := append(append([]string(nil), gridArgs...), "-sampler", "sobol")
	localSobol, _, err := runCLI(t, sobolArgs...)
	if err != nil {
		t.Fatal(err)
	}
	servedSobol, _, err := runCLI(t, append(sobolArgs, "-server", url)...)
	if err != nil {
		t.Fatal(err)
	}
	if servedSobol != localSobol {
		t.Errorf("-server -sampler sobol output differs from local:\n--- local ---\n%s--- served ---\n%s", localSobol, servedSobol)
	}
	if localSobol == local {
		t.Error("-sampler sobol output equals the PCG output; the sampler did not reach the query")
	}

	// -cursor K resumes at absolute cell K: header plus the tail of the
	// full run (4 cells x 2 method rows; cursor 2 keeps the last 2 cells).
	resumed, _, err := runCLI(t, append(gridArgs, "-server", url, "-cursor", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(local, "\n"), "\n")
	want := strings.Join(append(lines[:1:1], lines[5:]...), "\n") + "\n"
	if resumed != want {
		t.Errorf("-cursor 2 output:\n%s\nwant header + last 2 cells:\n%s", resumed, want)
	}

	// -cursor without -server is rejected, not silently ignored.
	if _, _, err := runCLI(t, "sweep", "-duty", "0.5", "-rates", "10", "-cursor", "1"); err == nil {
		t.Error("-cursor without -server accepted")
	}

	// A dead server surfaces a transport error, not a hang or success.
	if _, _, err := runCLI(t, "sweep", "-duty", "0.5", "-rates", "10", "-server", "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable -server accepted")
	}

	// Without -trials both paths run soferr.DefaultTrials, even against
	// a server started with another default.
	url1k, stop1k := startServe(t, "-trials", "1000")
	defer func() {
		if err := stop1k(); err != nil {
			t.Errorf("serve -trials 1000 returned %v", err)
		}
	}()
	defaultArgs := []string{"sweep", "-duty", "0.5", "-rates", "1e4", "-methods", "mc", "-seed", "7", "-csv"}
	localDefault, _, err := runCLI(t, defaultArgs...)
	if err != nil {
		t.Fatal(err)
	}
	servedDefault, _, err := runCLI(t, append(defaultArgs, "-server", url1k)...)
	if err != nil {
		t.Fatal(err)
	}
	if servedDefault != localDefault {
		t.Errorf("-server without -trials differs from local against serve -trials 1000:\n--- local ---\n%s--- served ---\n%s", localDefault, servedDefault)
	}
}
