package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/soferr/soferr"
)

// specFileOptions carries the `soferr run` flags beyond the Query that
// apply when the argument is a Spec JSON file rather than an experiment
// id.
type specFileOptions struct {
	instructions int
	methods      string
	asCSV        bool
	asJSON       bool
	verbose      bool
}

// isSpecFile reports whether the `run` argument names a Spec file
// instead of an experiment: a .json suffix or an existing regular file.
func isSpecFile(arg string) bool {
	if strings.HasSuffix(arg, ".json") {
		return true
	}
	st, err := os.Stat(arg)
	return err == nil && st.Mode().IsRegular()
}

// runSpecFile loads a soferr.Spec from a JSON file, compiles it through
// the same Compiler path the sweep CLI and the HTTP server use, and
// prints a method comparison at one Query. File-supplied and
// HTTP-supplied systems therefore share one code path end to end.
func runSpecFile(ctx context.Context, path string, stdout, stderr io.Writer, q soferr.Query, opt specFileOptions) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec soferr.Spec
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("%s: invalid spec: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	comp := &soferr.Compiler{Instructions: opt.instructions, SimSeed: q.Seed}
	if opt.verbose {
		comp.Log = stderr
	}
	sys, err := comp.Compile(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	var methods []soferr.Method
	for _, m := range splitList(opt.methods) {
		mm, err := soferr.MethodByName(m)
		if err != nil {
			return err
		}
		methods = append(methods, mm)
	}
	// An out-of-domain target (a sign-typo negative included) reaches
	// the query layer, which rejects it instead of running fixed trials.
	ests, err := sys.CompareWith(ctx, []soferr.EstimateOption{soferr.WithQuery(q)}, methods...)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	switch {
	case opt.asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Name      string            `json:"name,omitempty"`
			SpecHash  string            `json:"spec_hash"`
			Estimates []soferr.Estimate `json:"estimates"`
		}{spec.Name, spec.Hash(), ests})
	case opt.asCSV:
		cw := csv.NewWriter(stdout)
		if err := cw.Write([]string{"method", "mttf_seconds", "fit", "stderr_seconds", "rel_stderr"}); err != nil {
			return err
		}
		for _, e := range ests {
			if err := cw.Write([]string{
				e.Method.String(), formatG(e.MTTF), formatG(e.FIT),
				formatG(e.StdErr), formatG(e.RelStdErr()),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	default:
		name := spec.Name
		if name == "" {
			name = path
		}
		fmt.Fprintf(stdout, "spec %s (%s, %d components)\n", name, spec.Hash()[:14], len(spec.Components))
		fmt.Fprintf(stdout, "%-10s %14s %12s %10s\n", "method", "MTTF (s)", "FIT", "rel err")
		for _, e := range ests {
			fmt.Fprintf(stdout, "%-10s %14.6g %12.4g %9.2f%%\n",
				e.Method.String(), e.MTTF, e.FIT, 100*e.RelStdErr())
		}
		return nil
	}
}
