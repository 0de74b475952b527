// Package benchfmt defines the shared schema of the repository's
// BENCH_*.json reports (BENCH_mc.json, BENCH_sweep.json,
// BENCH_serve.json, BENCH_fused.json) and validates report documents
// against it, so `soferr bench -validate` and the CI bench job can
// catch a malformed or truncated report before it is committed.
//
// The schema is deliberately an envelope, not a per-file struct: every
// report is a JSON object carrying the Header fields (go_version,
// goarch) plus report-specific sections whose leaves are finite
// numbers, strings, or booleans. Report shapes evolve PR over PR;
// the envelope pins what every consumer relies on.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Header is the envelope every benchmark report shares: the toolchain
// and architecture the numbers were measured on.
type Header struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
}

// RequiredSections lists, per report basename, the top-level sections
// a valid instance must carry beyond the Header. The envelope accepts
// new sections freely; this map pins the ones downstream consumers
// (the README performance table, the acceptance tests) read, so a
// stale report generated by an older harness fails validation instead
// of silently dropping a section.
var RequiredSections = map[string][]string{
	"BENCH_fused.json": {"scaling", "qmc", "adaptive"},
}

// Validate checks one report document against the shared schema:
//
//   - the document is a JSON object,
//   - go_version and goarch are present non-empty strings,
//   - at least one numeric measurement appears outside the header,
//   - no null leaves (a null measurement means a write was skipped).
//
// JSON numbers are finite by construction, so no non-finite check is
// needed; the soferr JSON surfaces that can carry infinities
// (Estimate) do not appear in benchmark reports.
func Validate(data []byte) error {
	var hdr Header
	if err := json.Unmarshal(data, &hdr); err != nil {
		return fmt.Errorf("benchfmt: not a JSON object: %w", err)
	}
	if hdr.GoVersion == "" {
		return fmt.Errorf("benchfmt: missing go_version")
	}
	if hdr.GOARCH == "" {
		return fmt.Errorf("benchfmt: missing goarch")
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	numbers := 0
	for key, v := range doc {
		if key == "go_version" || key == "goarch" {
			continue
		}
		n, err := countLeaves(key, v)
		if err != nil {
			return err
		}
		numbers += n
	}
	if numbers == 0 {
		return fmt.Errorf("benchfmt: report carries no numeric measurements")
	}
	return nil
}

// countLeaves walks a decoded JSON value, counts numeric leaves, and
// rejects nulls.
func countLeaves(path string, v interface{}) (int, error) {
	switch x := v.(type) {
	case nil:
		return 0, fmt.Errorf("benchfmt: null value at %s", path)
	case float64:
		return 1, nil
	case string, bool:
		return 0, nil
	case []interface{}:
		total := 0
		for i, e := range x {
			n, err := countLeaves(fmt.Sprintf("%s[%d]", path, i), e)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	case map[string]interface{}:
		total := 0
		for k, e := range x {
			n, err := countLeaves(path+"."+k, e)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	default:
		return 0, fmt.Errorf("benchfmt: unsupported value at %s: %T", path, v)
	}
}

// ValidateSections checks that every named top-level section is
// present in the document. Callers run it after Validate, which has
// already established the document is a JSON object.
func ValidateSections(data []byte, sections []string) error {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	for _, s := range sections {
		if _, ok := doc[s]; !ok {
			return fmt.Errorf("benchfmt: missing required section %q", s)
		}
	}
	return nil
}

// ValidateFile reads and validates one report file against the shared
// envelope, plus any RequiredSections registered for its basename.
func ValidateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Validate(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if sections, ok := RequiredSections[filepath.Base(path)]; ok {
		if err := ValidateSections(data, sections); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}
