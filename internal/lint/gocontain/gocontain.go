// Package gocontain implements the soferrlint analyzer enforcing the
// panic-containment contract of the serving tier (see DESIGN.md,
// "Failure model"): a panic escaping any goroutine kills the whole
// process, so in the contained packages (the root soferr package,
// whose sweep engine runs a worker pool, internal/server,
// internal/montecarlo, internal/flight, whose caches run each build
// on a goroutine of its own, and client — recognized by the
// //soferr:contained package marker AND by import path, so deleting
// the marker cannot silence the check) every go statement must launch
// a goroutine that cannot leak a panic:
//
//   - a function literal with a top-level recover-bearing defer (a
//     defer whose deferred function calls recover()), or
//   - a named function or method whose own body carries such a defer
//     — a contained runner. Containment is looked up in the declaring
//     package directly and, across package boundaries, through the
//     Contained package fact this analyzer exports for every package
//     it visits.
//
// Test files are exempt: chaos tests deliberately crash goroutines.
// Escape hatch: //soferr:allow gocontain <why> — for goroutine bodies
// that are structurally panic-free (a single channel select, a
// wg.Wait+close pair) where a recover would be dead code.
package gocontain

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"github.com/soferr/soferr/internal/lint/directive"
)

const name = "gocontain"

// Contained is the package fact listing the package's contained
// runners — functions and methods whose bodies begin life with a
// recover-bearing defer — so a cross-package `go pkg.Runner()` can be
// verified without re-parsing the dependency.
type Contained struct {
	// Names holds plain function names and "Type.Method" entries.
	Names []string
}

// AFact marks Contained as an analysis fact.
func (*Contained) AFact() {}

func (c *Contained) String() string {
	names := append([]string(nil), c.Names...)
	sort.Strings(names)
	return fmt.Sprintf("contained%v", names)
}

var Analyzer = &analysis.Analyzer{
	Name:      name,
	Doc:       "require every go statement in the contained packages to launch a recover-bearing goroutine or a contained runner",
	Requires:  []*analysis.Analyzer{inspect.Analyzer, directive.Analyzer},
	FactTypes: []analysis.Fact{(*Contained)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := pass.ResultOf[directive.Analyzer].(*directive.Index)
	for _, a := range dirs.Unjustified(name) {
		pass.Reportf(a.Pos, "soferr:allow %s needs a justification (\"//soferr:allow %s <why>\")", name, name)
	}

	// Collect this package's contained runners and export them for
	// downstream packages — every package exports, even out-of-scope
	// ones, so a contained runner library can live anywhere.
	local := containedDecls(pass)
	if len(local) > 0 {
		names := make([]string, 0, len(local))
		for n := range local {
			names = append(names, n)
		}
		sort.Strings(names)
		pass.ExportPackageFact(&Contained{Names: names})
	}

	inScope := dirs.Contained() || directive.ContainedPaths[pass.Pkg.Path()]
	if !inScope {
		dirs.ReportStale(name, pass.Reportf)
		return nil, nil
	}

	report := func(n ast.Node, format string, args ...interface{}) {
		if dirs.Allows(name, n.Pos()) {
			return
		}
		pass.Reportf(n.Pos(), format, args...)
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	inTest := false
	ins.Preorder([]ast.Node{(*ast.File)(nil), (*ast.GoStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.File:
			inTest = strings.HasSuffix(pass.Fset.File(n.Pos()).Name(), "_test.go")
		case *ast.GoStmt:
			if inTest {
				return
			}
			checkGoStmt(pass, report, local, n)
		}
	})
	dirs.ReportStale(name, pass.Reportf)
	return nil, nil
}

func checkGoStmt(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), local map[string]bool, g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if hasRecoverDefer(fun.Body) {
			return
		}
		report(g, "go statement launches a goroutine without a top-level recover-bearing defer; a panic here kills the process — add `defer func() { if rec := recover(); rec != nil { ... } }()` first (or //soferr:allow gocontain <why>)")
	default:
		if fn := calleeFunc(pass, g.Call); fn != nil && isContainedRunner(pass, local, fn) {
			return
		}
		report(g, "go statement launches %s, which is not a known contained runner; give it a top-level recover-bearing defer (or //soferr:allow gocontain <why>)", types.ExprString(g.Call.Fun))
	}
}

// hasRecoverDefer reports whether the block's TOP-LEVEL statements
// include a defer whose deferred function literal calls recover().
// Only top-level defers count: a recover buried in a nested helper
// leaves the statements around it uncontained.
func hasRecoverDefer(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		def, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		lit, ok := ast.Unparen(def.Call.Fun).(*ast.FuncLit)
		if !ok {
			continue
		}
		if callsRecover(lit.Body) {
			return true
		}
	}
	return false
}

// callsRecover reports whether the block contains a call to the
// recover builtin.
func callsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeFunc resolves the go statement's callee to its *types.Func,
// handling plain identifiers and selector expressions (methods and
// imported functions).
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// isContainedRunner reports whether the named function is a contained
// runner: declared in this package with a top-level recover-bearing
// defer, or exported as such by its declaring package's Contained fact.
func isContainedRunner(pass *analysis.Pass, local map[string]bool, fn *types.Func) bool {
	key := runnerKey(fn)
	if fn.Pkg() == pass.Pkg {
		return local[key]
	}
	if fn.Pkg() == nil {
		return false
	}
	var fact Contained
	if !pass.ImportPackageFact(fn.Pkg(), &fact) {
		return false
	}
	for _, n := range fact.Names {
		if n == key {
			return true
		}
	}
	return false
}

// containedDecls scans the package's function declarations for
// contained runners, keyed the same way runnerKey keys a *types.Func.
func containedDecls(pass *analysis.Pass) map[string]bool {
	out := make(map[string]bool)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasRecoverDefer(fd.Body) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out[runnerKey(fn)] = true
		}
	}
	return out
}

// runnerKey names a function for the Contained fact: "F" for a
// package-level function, "T.M" for a method on T or *T.
func runnerKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
