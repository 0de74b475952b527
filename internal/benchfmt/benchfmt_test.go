package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateAcceptsWellFormedReports(t *testing.T) {
	cases := []string{
		`{"go_version":"go1.24.0","goarch":"amd64","speedup":3.5}`,
		`{"go_version":"go1.24.0","goarch":"amd64","benchmarks":[{"name":"x","ns_per_op":12.5,"allocs_per_op":0}]}`,
		`{"go_version":"go1.24.0","goarch":"amd64","nested":{"deep":{"count":1}},"flags":{"ok":true},"label":"a"}`,
	}
	for _, c := range cases {
		if err := Validate([]byte(c)); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", c, err)
		}
	}
}

func TestValidateRejectsMalformedReports(t *testing.T) {
	cases := map[string]string{
		`not json`:                        "not a JSON",
		`[1,2,3]`:                         "not a JSON object",
		`{"goarch":"amd64","x":1}`:        "go_version",
		`{"go_version":"go1.24.0","x":1}`: "goarch",
		`{"go_version":"go1.24.0","goarch":"amd64"}`:                     "no numeric",
		`{"go_version":"go1.24.0","goarch":"amd64","only":"strings"}`:    "no numeric",
		`{"go_version":"go1.24.0","goarch":"amd64","bench":null}`:        "null value",
		`{"go_version":"go1.24.0","goarch":"amd64","rows":[{"v":null}]}`: "null value",
	}
	for doc, wantSub := range cases {
		err := Validate([]byte(doc))
		if err == nil {
			t.Errorf("Validate(%s) accepted, want error containing %q", doc, wantSub)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Validate(%s) = %v, want error containing %q", doc, err, wantSub)
		}
	}
}

func TestValidateFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"go_version":"go1.24.0","goarch":"amd64","n":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFile(good); err != nil {
		t.Errorf("ValidateFile(good) = %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFile(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("ValidateFile(bad) = %v, want error naming the file", err)
	}
	if err := ValidateFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ValidateFile(missing) accepted")
	}
}

// TestRequiredSections covers the per-basename section pinning: a
// BENCH_fused.json without its qmc section is a stale report
// from an older harness and must fail, while the same document under
// an unregistered name still passes the plain envelope.
func TestRequiredSections(t *testing.T) {
	doc := []byte(`{"go_version":"go1.24.0","goarch":"amd64","scaling":[{"components":1}],"speedup_at_n":{"1":1},"adaptive":{"target_rel_stderr":0.01}}`)
	dir := t.TempDir()
	stale := filepath.Join(dir, "BENCH_fused.json")
	if err := os.WriteFile(stale, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	err := ValidateFile(stale)
	if err == nil || !strings.Contains(err.Error(), "qmc") {
		t.Errorf("ValidateFile(stale fused report) = %v, want missing-section error naming qmc", err)
	}
	other := filepath.Join(dir, "BENCH_other.json")
	if err := os.WriteFile(other, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFile(other); err != nil {
		t.Errorf("ValidateFile(unregistered basename) = %v, want nil", err)
	}
	if err := ValidateSections(doc, []string{"scaling", "adaptive"}); err != nil {
		t.Errorf("ValidateSections(present) = %v, want nil", err)
	}
}

// TestRepositoryReportsValidate pins the committed BENCH_*.json files
// to the shared schema, so a hand-edited or truncated report fails in
// CI.
func TestRepositoryReportsValidate(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Skip("no committed BENCH_*.json files")
	}
	for _, path := range matches {
		if err := ValidateFile(path); err != nil {
			t.Errorf("%v", err)
		}
	}
}
