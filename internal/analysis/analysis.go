// Package analysis is the secvet static-analysis suite: a set of
// custom analyzers that mechanically enforce the simulator's
// determinism, aliasing, and lock-state invariants, plus the small
// framework and package loader they run on.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API surface (Analyzer, Pass, Diagnostic, Reportf, analysistest golden
// files) so the analyzers can be ported to an x/tools multichecker
// verbatim once the module is allowed third-party dependencies. Until
// then everything here is standard library only: packages are
// enumerated with `go list -deps -export -json`, parsed with go/parser,
// and type-checked with go/types against the compiler export data the
// build cache already holds, so the tool works fully offline.
//
// Diagnostics can be suppressed per line with an allow comment:
//
//	//secvet:allow <rule>[,<rule>...] -- <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason string is mandatory; an allow comment without one is itself a
// diagnostic. See DESIGN.md §6 for the catalogue of enforced rules and
// the bugs that motivated them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one secvet check.
type Analyzer struct {
	// Name identifies the rule in diagnostics and allow comments
	// (lower-case, no spaces).
	Name string
	// Doc is a one-paragraph description shown by `secvet -help` and
	// exported to `go vet -vettool` flag metadata.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed syntax trees (including in-package
	// test files when the loader ran with tests enabled).
	Files []*ast.File
	// PkgPath is the canonical import path ("repro/internal/ftl" for the
	// test variant "repro/internal/ftl [repro/internal/ftl.test]").
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// --- shared type-shape helpers ------------------------------------------

// Callee resolves the *types.Func a call expression invokes (method,
// package-level function, or interface method). It returns nil for
// builtins, conversions, and indirect calls through function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltin reports whether the call invokes the named builtin.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// NamedType unwraps pointers and aliases and returns the named type of
// t, or nil.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// IsNamed reports whether t (possibly behind pointers) is the named
// type pkgName.typeName. Matching is by package *name* rather than full
// import path so the rule applies equally to the real module packages
// and to the self-contained analysistest fixtures.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	n := NamedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// FuncFromPackage reports whether fn is a package-level function of the
// package with the given import path (e.g. "time", "math/rand").
func FuncFromPackage(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ReceiverNamed returns the named receiver type of a method, or nil for
// package-level functions.
func ReceiverNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return NamedType(sig.Recv().Type())
}
