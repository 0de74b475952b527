package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/soferr/soferr"
)

// Table is a rendered experiment result: the rows/series a paper table
// or figure reports.
type Table struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string `json:"id"`
	// Title describes the table.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows holds the cells, one slice per row.
	Rows [][]string `json:"rows"`
	// Notes carries caveats and paper-comparison remarks.
	Notes []string `json:"notes,omitempty"`
	// Estimates carries the typed estimates behind the rendered cells,
	// for experiments that query compiled Systems; the JSON output
	// emits them alongside the string grid.
	Estimates []PointEstimate `json:"estimates,omitempty"`
}

// PointEstimate labels one soferr.Estimate with the design point that
// produced it.
type PointEstimate struct {
	Point    string          `json:"point"`
	Estimate soferr.Estimate `json:"estimate"`
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddEstimates attaches typed estimates for one design point.
func (t *Table) AddEstimates(point string, ests ...soferr.Estimate) {
	for _, e := range ests {
		t.Estimates = append(t.Estimates, PointEstimate{Point: point, Estimate: e})
	}
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (header first, notes omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Fprint(&b); err != nil {
		return fmt.Sprintf("table %s: %v", t.ID, err)
	}
	return b.String()
}

// fmtSeconds renders a duration in seconds with a readable unit.
func fmtSeconds(s float64) string {
	switch {
	case math.IsInf(s, 1):
		return "inf"
	case s >= 3.156e9:
		return fmt.Sprintf("%.3gcy", s/3.156e9)
	case s >= 3.156e7:
		return fmt.Sprintf("%.3gyr", s/3.156e7)
	case s >= 86400:
		return fmt.Sprintf("%.3gd", s/86400)
	case s >= 3600:
		return fmt.Sprintf("%.3gh", s/3600)
	case s >= 1:
		return fmt.Sprintf("%.3gs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3gms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.3gus", s*1e6)
	default:
		return fmt.Sprintf("%.3gns", s*1e9)
	}
}

// fmtPct renders a fraction as a signed percentage.
func fmtPct(f float64) string {
	return fmt.Sprintf("%+.1f%%", 100*f)
}

// fmtSci renders a float in compact scientific notation.
func fmtSci(f float64) string {
	return fmt.Sprintf("%.3g", f)
}
