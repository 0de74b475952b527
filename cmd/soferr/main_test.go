package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestList(t *testing.T) {
	out, _, err := runCLI(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig3", "fig6b", "sec54", "extphase"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestConfig(t *testing.T) {
	out, _, err := runCLI(t, "config")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2.0 GHz") || !strings.Contains(out, "150 entries") {
		t.Errorf("config output missing Table 1 values:\n%s", out)
	}
}

func TestRunFig4(t *testing.T) {
	out, _, err := runCLI(t, "run", "fig4", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "rel err") {
		t.Errorf("fig4 output malformed:\n%s", out)
	}
}

func TestRunCSV(t *testing.T) {
	out, _, err := runCLI(t, "run", "fig4", "-quick", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "N components,") {
		t.Errorf("CSV output missing header:\n%s", out)
	}
	if strings.Contains(out, "==") {
		t.Error("CSV output contains text-table decorations")
	}
}

func TestRunJSON(t *testing.T) {
	// One document — an array of tables — even for multiple
	// experiments, so the output is always parseable as a whole.
	out, _, err := runCLI(t, "run", "fig4", "-quick", "-json")
	if err != nil {
		t.Fatal(err)
	}
	type table struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	var tabs []table
	if err := json.Unmarshal([]byte(out), &tabs); err != nil {
		t.Fatalf("run -json emitted invalid JSON: %v\n%s", err, out)
	}
	if len(tabs) != 1 || tabs[0].ID != "fig4" || len(tabs[0].Rows) == 0 || len(tabs[0].Header) == 0 {
		t.Errorf("run -json table malformed: %+v", tabs)
	}

	out, _, err = runCLI(t, "run", "fig3", "-quick", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var more []table
	if err := json.Unmarshal([]byte(out), &more); err != nil {
		t.Fatalf("second -json run invalid: %v", err)
	}
}

func TestRunJSONAndCSVExclusive(t *testing.T) {
	if _, _, err := runCLI(t, "run", "fig4", "-quick", "-json", "-csv"); err == nil {
		t.Error("-json with -csv accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	_, _, err := runCLI(t, "run", "nope")
	if err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunMissingID(t *testing.T) {
	_, _, err := runCLI(t, "run")
	if err == nil {
		t.Error("missing id accepted")
	}
}

func TestUnknownCommand(t *testing.T) {
	_, _, err := runCLI(t, "frobnicate")
	if err == nil {
		t.Error("unknown command accepted")
	}
}

func TestNoArgs(t *testing.T) {
	_, _, err := runCLI(t)
	if err == nil {
		t.Error("no command accepted")
	}
}

func TestHelp(t *testing.T) {
	out, _, err := runCLI(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "commands:") {
		t.Error("help output malformed")
	}
}

func TestWorkloadsSurvey(t *testing.T) {
	out, _, err := runCLI(t, "workloads", "-instructions", "5000")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gzip", "swim", "sixtrack", "ipc"} {
		if !strings.Contains(out, want) {
			t.Errorf("workloads output missing %q", want)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 22 { // header + 21 benchmarks
		t.Errorf("workloads output should have 22 lines:\n%s", out)
	}
}

func TestRunEngineFlag(t *testing.T) {
	for _, engine := range []string{"fused", "exact"} {
		out, _, err := runCLI(t, "run", "fig4", "-quick", "-engine", engine)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if !strings.Contains(out, "fig4") {
			t.Errorf("engine %s: malformed output:\n%s", engine, out)
		}
	}
}

// TestRunExtdistIgnoresEngineAndSeed: extdist computes every column in
// closed form, so neither the engine nor the seed moves a byte of its
// table, and the table is the one EXPERIMENTS.md records.
func TestRunExtdistIgnoresEngineAndSeed(t *testing.T) {
	var outs []string
	for _, args := range [][]string{
		{"-engine", "fused", "-seed", "1"},
		{"-engine", "exact", "-seed", "1"},
		{"-engine", "fused", "-seed", "2"},
		{"-engine", "exact", "-seed", "2"},
	} {
		out, _, err := runCLI(t, append([]string{"run", "extdist"}, args...)...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if len(outs) > 0 && out != outs[0] {
			t.Errorf("%v: table differs from -engine fused -seed 1:\n%s\nvs\n%s", args, out, outs[0])
		}
		outs = append(outs, out)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(doc), "== extdist:")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md records no extdist table")
	}
	recorded, _, _ := strings.Cut(string(doc[start:]), "\n\n")
	if got := strings.TrimRight(outs[0], "\n"); got != recorded {
		t.Errorf("extdist table differs from EXPERIMENTS.md:\n%s\nvs recorded\n%s", got, recorded)
	}
}

// TestRunAllMatchesExperimentsMD: `soferr run all -seed 1` prints, byte
// for byte, the tables EXPERIMENTS.md records. A change meant to keep
// every answer must keep this test passing; one that moves a table
// regenerates the fenced block and says why.
func TestRunAllMatchesExperimentsMD(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at full scale")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), "## Full run (`soferr run all -seed 1`)\n\n```\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no fenced block under \"## Full run\"")
	}
	recorded, _, ok := strings.Cut(block, "\n```\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md's full-run block is not closed")
	}
	out, _, err := runCLI(t, "run", "all", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(out, "\n"); got != recorded {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(recorded, "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d differs from EXPERIMENTS.md:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, EXPERIMENTS.md records %d", len(gotLines), len(wantLines))
	}
}

func TestRunEngineFlagUnknown(t *testing.T) {
	_, _, err := runCLI(t, "run", "fig4", "-quick", "-engine", "warp")
	if err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestHelpMentionsEngineNotBench pins the help text to the commands
// that exist: -engine is documented, no command line is "bench" (the
// sweep flag "-bench LIST" names benchmark sources), and bench is an
// unknown command.
func TestHelpMentionsEngineNotBench(t *testing.T) {
	out, _, err := runCLI(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-engine") {
		t.Errorf("help missing engine documentation:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "bench" {
			t.Errorf("help lists a bench command: %q", line)
		}
	}
	if _, _, err := runCLI(t, "bench"); err == nil {
		t.Error("bench accepted as a command")
	}
}

func TestSweepText(t *testing.T) {
	out, _, err := runCLI(t, "sweep",
		"-duty", "0.5", "-rates", "10,1e6", "-counts", "1,2",
		"-methods", "avf+sofr,softarch")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"duty=0.5", "avf+sofr", "softarch", "MTTF"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	// 2 rates x 2 counts x 2 methods rows plus one header line.
	if got := strings.Count(strings.TrimSpace(out), "\n"); got != 8 {
		t.Errorf("sweep printed %d lines, want 9:\n%s", got+1, out)
	}
}

func TestSweepCSV(t *testing.T) {
	out, _, err := runCLI(t, "sweep",
		"-duty", "0.5", "-rates", "10", "-methods", "softarch", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "source,rate_per_year,count,seed,method,") {
		t.Errorf("sweep CSV missing header:\n%s", out)
	}
	if !strings.Contains(out, "duty=0.5,10,1,") {
		t.Errorf("sweep CSV missing data row:\n%s", out)
	}
}

func TestSweepJSON(t *testing.T) {
	out, _, err := runCLI(t, "sweep",
		"-duty", "0.25,0.75", "-ns", "1e9", "-methods", "avf+sofr", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name  string `json:"name"`
		Cells []struct {
			Cell struct {
				SourceName  string  `json:"source_name"`
				RatePerYear float64 `json:"rate_per_year"`
			} `json:"cell"`
			Estimates []struct {
				Method string `json:"method"`
			} `json:"estimates"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("sweep -json is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(doc.Cells))
	}
	// -ns 1e9 is rate 10/yr under the paper's 1e-8/yr-per-bit baseline.
	if doc.Cells[0].Cell.RatePerYear != 10 {
		t.Errorf("NxS=1e9 gave rate %v, want 10", doc.Cells[0].Cell.RatePerYear)
	}
	if doc.Cells[0].Estimates[0].Method != "avf+sofr" {
		t.Errorf("method = %q", doc.Cells[0].Estimates[0].Method)
	}
}

func TestSweepFlagValidation(t *testing.T) {
	if _, _, err := runCLI(t, "sweep", "-rates", "10"); err == nil {
		t.Error("sweep without sources succeeded")
	}
	if _, _, err := runCLI(t, "sweep", "-duty", "0.5"); err == nil {
		t.Error("sweep without rates succeeded")
	}
	if _, _, err := runCLI(t, "sweep", "-duty", "0.5", "-rates", "10", "-csv", "-json"); err == nil {
		t.Error("sweep accepted -csv with -json")
	}
	if _, _, err := runCLI(t, "sweep", "-workloads", "weekend", "-rates", "10"); err == nil {
		t.Error("sweep accepted unknown workload")
	}
	if _, _, err := runCLI(t, "sweep", "-duty", "0.5", "-rates", "10", "-methods", "bogus"); err == nil {
		t.Error("sweep accepted unknown method")
	}
}

func TestHelpMentionsSweep(t *testing.T) {
	out, _, err := runCLI(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep") {
		t.Error("help does not mention the sweep subcommand")
	}
}
