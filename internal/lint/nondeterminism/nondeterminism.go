// Package nondeterminism implements the soferrlint analyzer enforcing
// the deterministic-core contract: the packages whose results must be
// bit-identical for a given seed across runs, machines, and worker
// counts (trace, montecarlo, xrand, numeric, and the root soferr
// query and sweep paths) may not read wall clocks, use the global
// math/rand streams, or let map iteration order feed returned or
// ordered data.
//
// Scope: a package is in scope when it carries the
// //soferr:deterministic marker above its package clause or when its
// import path is one of the known core packages (so deleting the
// marker does not silence the check). Test files are exempt — they
// may time things and shuffle inputs freely.
//
// Escape hatch: //soferr:allow nondeterminism <why>.
package nondeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"github.com/soferr/soferr/internal/lint/directive"
)

const name = "nondeterminism"

// KnownChecks lists every analyzer name an //soferr:allow directive
// may legitimately reference. This analyzer reports unknown names so a
// typo cannot silently suppress nothing.
var KnownChecks = map[string]bool{
	"nondeterminism": true,
	"hotpath":        true,
	"errcontract":    true,
	"ctxflow":        true,
	"faultpoint":     true,
	"floatprec":      true,
	"allocfree":      true,
	"gocontain":      true,
}

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "forbid wall clocks, global math/rand, and order-feeding map iteration in the deterministic core",
	Requires: []*analysis.Analyzer{inspect.Analyzer, directive.Analyzer},
	Run:      run,
}

// wallClockFuncs are the time-package functions whose results depend
// on when the process runs.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := pass.ResultOf[directive.Analyzer].(*directive.Index)

	// Directive grammar errors owned by this analyzer: its own
	// justification-less allows, plus allows naming no known check.
	for _, a := range dirs.Unjustified(name) {
		pass.Reportf(a.Pos, "soferr:allow %s needs a justification (\"//soferr:allow %s <why>\")", name, name)
	}
	for _, a := range dirs.UnknownChecks(KnownChecks) {
		pass.Reportf(a.Pos, "soferr:allow names unknown check %q (want one of nondeterminism, hotpath, errcontract, ctxflow, faultpoint, floatprec, allocfree, gocontain)", a.Check)
	}

	if !dirs.Deterministic() && !directive.CorePaths[pass.Pkg.Path()] {
		dirs.ReportStale(name, pass.Reportf)
		return nil, nil
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	report := func(pos ast.Node, format string, args ...interface{}) {
		if dirs.Allows(name, pos.Pos()) {
			return
		}
		pass.Reportf(pos.Pos(), format, args...)
	}

	nodeFilter := []ast.Node{
		(*ast.File)(nil),
		(*ast.ImportSpec)(nil),
		(*ast.SelectorExpr)(nil),
		(*ast.RangeStmt)(nil),
	}
	inTest := false
	ins.Preorder(nodeFilter, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.File:
			inTest = isTestFile(pass, n)
		case *ast.ImportSpec:
			if inTest {
				return
			}
			path := strings.Trim(n.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				report(n, "deterministic core imports %s; draw from internal/xrand with an explicit seed instead", path)
			}
		case *ast.SelectorExpr:
			if inTest {
				return
			}
			fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return
			}
			if fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
				report(n, "deterministic core reads the wall clock (time.%s); results must depend only on inputs and the seed", fn.Name())
			}
		case *ast.RangeStmt:
			if inTest {
				return
			}
			checkMapRange(pass, report, n)
		}
	})
	dirs.ReportStale(name, pass.Reportf)
	return nil, nil
}

func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.File(f.Pos()).Name(), "_test.go")
}

// checkMapRange flags range-over-map loops whose bodies feed ordered
// or returned data: a return statement, a channel send, or an append
// whose result is not visibly sorted afterwards in the same block.
// Order-insensitive folds (sums, max, set membership) pass untouched.
func checkMapRange(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var appended []*ast.Ident
	bad := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if len(n.Results) > 0 {
				report(rng, "map iteration order feeds a return value; collect and sort first (or //soferr:allow nondeterminism <why>)")
				bad = true
				return false
			}
		case *ast.SendStmt:
			report(rng, "map iteration order feeds a channel; collect and sort first (or //soferr:allow nondeterminism <why>)")
			bad = true
			return false
		case *ast.CallExpr:
			if b, ok := pass.TypesInfo.Uses[funIdent(n)].(*types.Builtin); ok && b.Name() == "append" {
				if target, ok := n.Args[0].(*ast.Ident); ok {
					appended = append(appended, target)
				} else {
					report(rng, "map iteration order feeds appended data; collect and sort first (or //soferr:allow nondeterminism <why>)")
					bad = true
					return false
				}
			}
		}
		return !bad
	})
	if bad {
		return
	}
	for _, target := range appended {
		if !sortedAfter(pass, rng, target) {
			report(rng, "map iteration order feeds %s without a following sort; sort it before use (or //soferr:allow nondeterminism <why>)", target.Name)
			return
		}
	}
}

// sortedAfter reports whether, somewhere after the range loop within
// the loop's syntactic neighborhood, the appended-to variable is
// passed to a sort (sort.* or slices.Sort*). It is a syntactic
// best-effort check for the canonical collect-then-sort idiom.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, target *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[target]
	if obj == nil {
		obj = pass.TypesInfo.Defs[target]
	}
	if obj == nil {
		return false
	}
	for _, f := range pass.Files {
		if f.Pos() <= rng.Pos() && rng.End() <= f.End() {
			found := false
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || call.Pos() < rng.End() || found {
					return !found
				}
				if !isSortCall(pass, call) {
					return true
				}
				for _, arg := range call.Args {
					ast.Inspect(arg, func(an ast.Node) bool {
						if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
							found = true
						}
						return !found
					})
				}
				return !found
			})
			return found
		}
	}
	return false
}

// funIdent returns the call's function identifier, or a fresh blank
// ident (which resolves to no object) when the callee is not a plain
// identifier.
func funIdent(call *ast.CallExpr) *ast.Ident {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id
	}
	return &ast.Ident{Name: "_"}
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}
