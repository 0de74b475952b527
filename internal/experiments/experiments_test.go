package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func quickRunner() *Runner {
	return NewRunner(Options{Quick: true, Trials: 15000, Instructions: 40000, Seed: 1})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "sec51", "fig5", "fig6a", "fig6b", "sec54", "extdist", "extphase", "extphases"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Paper == "" || all[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig3" {
		t.Errorf("ByID returned %s", e.ID)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// pct parses a "+12.3%" cell.
func pct(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percentage cell %q: %v", cell, err)
	}
	return v
}

func TestTable1ContainsPaperValues(t *testing.T) {
	tab, err := quickRunner().Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	text := tab.String()
	for _, want := range []string{
		"2.0 GHz", "8 per cycle", "150 entries", "256 entries",
		"2 integer, 2 FP, 2 load-store, 1 branch",
		"1/4/35 add/multiply/divide", "5 default, 28 divide (pipelined)",
		"32KB, 2-way, 128-byte line", "64KB, 1-way, 128-byte line",
		"1MB, 4-way, 128-byte line", "77 cycles",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2ContainsDesignSpace(t *testing.T) {
	tab, err := quickRunner().Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	text := tab.String()
	for _, want := range []string{"1e+05", "1e+09", "5000", "500000", "day", "week", "combined"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFig3ErrorsGrowWithRateAndL(t *testing.T) {
	tab, err := quickRunner().Fig3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(tab.Rows))
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	// Errors grow along both axes.
	if pct(t, last[3]) <= pct(t, last[1]) {
		t.Errorf("error at 5x (%s) not above 1x (%s) for L=16", last[3], last[1])
	}
	if pct(t, last[3]) <= pct(t, first[3]) {
		t.Errorf("error at L=16 (%s) not above L=1 (%s) at 5x", last[3], first[3])
	}
	// Paper anchors: small at baseline, substantial at 5x/16 days.
	if pct(t, last[1]) > 10 {
		t.Errorf("baseline error %s should stay below 10%%", last[1])
	}
	if pct(t, last[3]) < 15 {
		t.Errorf("5x error %s should exceed 15%%", last[3])
	}
}

func TestFig4MatchesPaperAnchors(t *testing.T) {
	tab, err := quickRunner().Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var n2, n32 float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "2":
			n2 = pct(t, row[3])
		case "32":
			n32 = pct(t, row[3])
		}
	}
	// SOFR underestimates: paper reports ~15% at N=2 and ~32% at N=32.
	if n2 > -12 || n2 < -18 {
		t.Errorf("N=2 error = %v%%, want ~-15%%", n2)
	}
	if n32 > -28 || n32 < -36 {
		t.Errorf("N=32 error = %v%%, want ~-32%%", n32)
	}
}

func TestFig5DayErrorsGrowWithNS(t *testing.T) {
	tab, err := quickRunner().Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var day []float64
	for _, row := range tab.Rows {
		if row[0] == "day" {
			day = append(day, pct(t, row[6]))
		}
	}
	if len(day) < 2 {
		t.Fatalf("day rows missing: %v", tab.Rows)
	}
	if day[len(day)-1] <= day[0] {
		t.Errorf("day AVF error did not grow with NxS: %v", day)
	}
	// At NxS=1e11 the day workload is far along its sigmoid.
	if day[len(day)-1] < 10 {
		t.Errorf("day error at large NxS = %v%%, want >= 10%%", day[len(day)-1])
	}
}

func TestFig6bDayAndWeekShapes(t *testing.T) {
	tab, err := quickRunner().Fig6b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Collect err by (workload, NxS, C).
	get := func(w, ns string, c string) (float64, bool) {
		for _, row := range tab.Rows {
			if row[0] == w && row[1] == ns && row[2] == c {
				return pct(t, row[5]), true
			}
		}
		return 0, false
	}
	smallDay, ok1 := get("day", "1e+06", "8")
	bigDay, ok2 := get("day", "1e+08", "50000")
	if !ok1 || !ok2 {
		t.Fatalf("missing day rows in %v", tab.Rows)
	}
	if smallDay > 5 {
		t.Errorf("day error at small C/NxS = %v%%, want ~0", smallDay)
	}
	if bigDay < 50 {
		t.Errorf("day error at large C/NxS = %v%%, want large (paper: 50%%, saturation: 100%%)", bigDay)
	}
	// Week reaches higher error than day at the same small-to-mid point.
	dayMid, ok3 := get("day", "1e+06", "50000")
	weekMid, ok4 := get("week", "1e+06", "50000")
	if ok3 && ok4 && weekMid <= dayMid {
		t.Errorf("week error (%v%%) not above day (%v%%) at same point", weekMid, dayMid)
	}
}

func TestSec54SoftArchAgreesWithMC(t *testing.T) {
	tab, err := quickRunner().Sec54(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		e := pct(t, row[3])
		if e > 3 || e < -3 {
			t.Errorf("point %s: SoftArch vs MC = %v%%, want within MC noise", row[0], e)
		}
	}
	// The System.Compare migration attaches typed estimates: one
	// SoftArch + one Monte-Carlo estimate per point.
	if len(tab.Estimates) != 2*len(tab.Rows) {
		t.Fatalf("got %d estimates for %d rows, want 2 per row", len(tab.Estimates), len(tab.Rows))
	}
	for _, pe := range tab.Estimates {
		if pe.Point == "" || pe.Estimate.MTTF <= 0 {
			t.Errorf("malformed point estimate: %+v", pe)
		}
	}
	js, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out := string(js)
	for _, want := range []string{`"id": "sec54"`, `"estimates"`, `"method": "montecarlo"`, `"method": "softarch"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

func TestSec51SmallErrors(t *testing.T) {
	tab, err := quickRunner().Sec51(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("expected >=10 rows (3 benchmarks x 5), got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		e := pct(t, row[6])
		// At 15k trials the MC standard error is ~0.8%, so allow 3%.
		if e > 3 || e < -3 {
			t.Errorf("%s/%s: err = %v%%, want within sampling noise", row[0], row[1], e)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "test",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "note")
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: test ==", "a  b", "1  2", "note: note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q in:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if csvBuf.String() != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", csvBuf.String())
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3.156e7 * 2, "2yr"},
		{86400 * 3, "3d"},
		{7200, "2h"},
		{5, "5s"},
		{0.002, "2ms"},
		{2e-6, "2us"},
		{3e-10, "0.3ns"},
	}
	for _, tt := range cases {
		if got := fmtSeconds(tt.in); got != tt.want {
			t.Errorf("fmtSeconds(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
	if fmtPct(0.123) != "+12.3%" {
		t.Errorf("fmtPct = %q", fmtPct(0.123))
	}
	if fmtPct(-0.05) != "-5.0%" {
		t.Errorf("fmtPct = %q", fmtPct(-0.05))
	}
}

func TestFig6aSmallCAccurate(t *testing.T) {
	tab, err := quickRunner().Fig6a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		if row[2] != "8" {
			continue
		}
		e := pct(t, row[5])
		if e > 3 || e < -3 {
			t.Errorf("%s C=8 NxS=%s: err %v%%, SPEC SOFR should be accurate at small C", row[0], row[1], e)
		}
	}
}

func TestExtDistShapes(t *testing.T) {
	// Every column is closed form, so the quick rows are pinned exactly:
	// near-exponential at small NxS, visibly not at NxS = 1e11.
	tab, err := quickRunner().ExtDist(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"1e+08", "2yr", "1.000", "0.001", "0.693"},
		{"1e+11", "12.8h", "1.288", "0.140", "0.473"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(want))
	}
	for i, row := range tab.Rows {
		if strings.Join(row, " ") != strings.Join(want[i], " ") {
			t.Errorf("row %d = %q, want %q", i, row, want[i])
		}
	}
}

func TestExtPhaseStaggerKillsError(t *testing.T) {
	tab, err := quickRunner().ExtPhase(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inPhase := pct(t, tab.Rows[0][5])
	staggered := pct(t, tab.Rows[len(tab.Rows)-1][5])
	if inPhase < 50 {
		t.Errorf("in-phase error = %v%%, want large", inPhase)
	}
	if staggered > 5 || staggered < -5 {
		t.Errorf("staggered error = %v%%, want ~0", staggered)
	}
}

func TestExtPhasesRuns(t *testing.T) {
	tab, err := quickRunner().ExtPhases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("want rows for both workloads, got %d", len(tab.Rows))
	}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		seen[row[0]] = true
	}
	if !seen["gzip"] || !seen["phased-int"] {
		t.Errorf("missing workloads in %v", tab.Rows)
	}
}
