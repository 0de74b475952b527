// Package directive parses the soferr annotation grammar shared by
// every analyzer in the soferrlint suite (see DESIGN.md, "Static
// contracts"):
//
//	//soferr:deterministic
//	    Package marker. Placed above (or inside the doc comment of)
//	    the package clause, it opts the whole package into the
//	    nondeterminism contract. The five core packages carry it; the
//	    analyzer also recognizes them by import path so deleting the
//	    marker does not silence the check.
//
//	//soferr:hotpath
//	    Function marker. Placed in a function's doc comment, it
//	    declares the function allocation-free per call and arms the
//	    hotpath analyzer over its body.
//
//	//soferr:contained
//	    Package marker. Placed above (or inside the doc comment of)
//	    the package clause, it opts the whole package into the
//	    panic-containment contract: every go statement must launch a
//	    recover-bearing goroutine (the gocontain analyzer). The
//	    analyzer recognizes the contained packages (ContainedPaths:
//	    the root package's sweep engine, the server, the trial loop,
//	    the single-flight cache and the client) by import path, so
//	    none needs the marker.
//
//	//soferr:allow <check> <justification>
//	    Escape hatch. Suppresses diagnostics of analyzer <check> on
//	    the line the comment trails, on the statement the comment
//	    precedes, or — when placed in a function's doc comment — on
//	    the whole function. The justification is mandatory: an allow
//	    without one is itself a diagnostic from the named analyzer,
//	    and an allow that suppresses nothing is reported as stale.
//
// Like the //go: directives, soferr directives are comments whose text
// starts exactly with "soferr:" (no space after "//").
package directive

import (
	"go/ast"
	"go/token"
	"strings"
	"sync"
)

// CorePaths are the deterministic-core packages recognized by import
// path even without the //soferr:deterministic marker, so deleting the
// marker cannot silence the nondeterminism and floatprec checks.
var CorePaths = map[string]bool{
	"github.com/soferr/soferr":                     true,
	"github.com/soferr/soferr/internal/trace":      true,
	"github.com/soferr/soferr/internal/montecarlo": true,
	"github.com/soferr/soferr/internal/xrand":      true,
	"github.com/soferr/soferr/internal/numeric":    true,
}

// ContainedPaths are the panic-containment packages recognized by
// import path even without the //soferr:contained marker: the tiers
// whose goroutines must never let a panic kill the process (see
// DESIGN.md, "Failure model").
var ContainedPaths = map[string]bool{
	"github.com/soferr/soferr":                     true,
	"github.com/soferr/soferr/internal/server":     true,
	"github.com/soferr/soferr/internal/montecarlo": true,
	"github.com/soferr/soferr/internal/flight":     true,
	"github.com/soferr/soferr/client":              true,
}

// Allow is one parsed //soferr:allow directive.
type Allow struct {
	// Check is the analyzer name the directive suppresses.
	Check string
	// Justification is the free-text reason; empty means the directive
	// is malformed and must be reported.
	Justification string
	// Pos is the position of the directive comment itself.
	Pos token.Pos
	// From and To bound the source range the suppression covers.
	From, To token.Pos
}

// Index holds the parsed directives of one file set pass, ready for
// suppression lookups.
type Index struct {
	fset   *token.FileSet
	allows []Allow
	// used marks, per allows entry, whether the allow suppressed at
	// least one diagnostic; an unused justified allow is stale. Guarded
	// by mu: one Index is shared by every analyzer of a package, and
	// drivers may run analyzers concurrently.
	used []bool
	mu   sync.Mutex
	// hotpath maps *ast.FuncDecl nodes annotated //soferr:hotpath.
	hotpath map[*ast.FuncDecl]bool
	// deterministic is set when any file marks the package
	// //soferr:deterministic.
	deterministic bool
	// contained is set when any file marks the package
	// //soferr:contained.
	contained bool
}

// Parse scans the files' comments and builds the directive index.
// Suppression ranges are resolved against the file's syntax: a trailing
// directive covers its own line, a standalone directive covers the
// following line, and a directive inside a function's doc comment
// covers the function.
func Parse(fset *token.FileSet, files []*ast.File) *Index {
	idx := &Index{fset: fset, hotpath: make(map[*ast.FuncDecl]bool)}
	for _, f := range files {
		idx.parseFile(f)
	}
	return idx
}

func (idx *Index) parseFile(f *ast.File) {
	// Function doc comments: hotpath markers and function-wide allows.
	docOf := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if ok && fd.Doc != nil {
			docOf[fd.Doc] = fd
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//soferr:")
			if !ok {
				continue
			}
			switch {
			case text == "deterministic" || strings.HasPrefix(text, "deterministic "):
				if c.Pos() < f.Name.End() {
					idx.deterministic = true
				}
			case text == "contained" || strings.HasPrefix(text, "contained "):
				if c.Pos() < f.Name.End() {
					idx.contained = true
				}
			case text == "hotpath" || strings.HasPrefix(text, "hotpath "):
				if fd := docOf[cg]; fd != nil {
					idx.hotpath[fd] = true
				}
			case strings.HasPrefix(text, "allow"):
				idx.addAllow(f, cg, c, docOf[cg], strings.TrimPrefix(text, "allow"))
			}
		}
	}
}

func (idx *Index) addAllow(f *ast.File, cg *ast.CommentGroup, c *ast.Comment, fd *ast.FuncDecl, rest string) {
	fields := strings.Fields(rest)
	a := Allow{Pos: c.Pos()}
	if len(fields) > 0 {
		a.Check = fields[0]
		a.Justification = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
	}
	switch {
	case fd != nil:
		// Doc-comment allow: the whole function.
		a.From, a.To = fd.Pos(), fd.End()
	default:
		// Line-level allow: the directive's own line (trailing comment)
		// plus the following line (standalone comment above a
		// statement).
		file := idx.fset.File(c.Pos())
		line := file.Line(c.Pos())
		a.From = file.LineStart(line)
		if line+2 <= file.LineCount() {
			a.To = file.LineStart(line+2) - 1
		} else {
			a.To = token.Pos(file.Base() + file.Size())
		}
	}
	idx.allows = append(idx.allows, a)
	idx.used = append(idx.used, false)
}

// Allows reports whether a diagnostic of the named check at pos is
// suppressed by a justified allow directive, and marks the suppressing
// allow used so Stale can report the ones that suppress nothing.
func (idx *Index) Allows(check string, pos token.Pos) bool {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	hit := false
	for i, a := range idx.allows {
		if a.Check == check && a.Justification != "" && a.From <= pos && pos <= a.To {
			idx.used[i] = true
			hit = true
		}
	}
	return hit
}

// Stale returns the justified allow directives for the named check
// that never suppressed a diagnostic. The analyzer owning the check
// calls it after its scan and reports each one, so the suppression
// inventory cannot rot as the code it excused is fixed.
func (idx *Index) Stale(check string) []Allow {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	var out []Allow
	for i, a := range idx.allows {
		if a.Check == check && a.Justification != "" && !idx.used[i] {
			out = append(out, a)
		}
	}
	return out
}

// Unjustified returns the allow directives for the named check that
// carry no justification; the analyzer owning the check reports them.
func (idx *Index) Unjustified(check string) []Allow {
	var out []Allow
	for _, a := range idx.allows {
		if a.Check == check && a.Justification == "" {
			out = append(out, a)
		}
	}
	return out
}

// ReportStale reports, through reportf (normally pass.Reportf), every
// justified allow of the named check that suppressed no diagnostic.
// Analyzers call it once, after their scan, so the report reflects the
// whole pass.
func (idx *Index) ReportStale(check string, reportf func(pos token.Pos, format string, args ...interface{})) {
	for _, a := range idx.Stale(check) {
		reportf(a.Pos, "soferr:allow %s suppresses no %s diagnostic; the code it excused is gone — remove the stale allow", check, check)
	}
}

// UnknownChecks returns allow directives naming none of the known
// checks (reported once, by the suite's first analyzer, so typos don't
// silently suppress nothing).
func (idx *Index) UnknownChecks(known map[string]bool) []Allow {
	var out []Allow
	for _, a := range idx.allows {
		if !known[a.Check] {
			out = append(out, a)
		}
	}
	return out
}

// Deterministic reports whether any file declared the package
// //soferr:deterministic.
func (idx *Index) Deterministic() bool { return idx.deterministic }

// Contained reports whether any file declared the package
// //soferr:contained.
func (idx *Index) Contained() bool { return idx.contained }

// Hotpath reports whether the function is annotated //soferr:hotpath.
func (idx *Index) Hotpath(fd *ast.FuncDecl) bool { return idx.hotpath[fd] }
