package analysis

// Auditcheck: the static form of the audit-ledger verifier. Evanesco's
// accounting argument is that every physical state transition the FTL
// performs is *reported*: a destruction fires Hooks.Destroyed and (when
// tracing) an audit.KindDestroy event, an invalidation fires
// Hooks.Invalidated and trace.Invalidated, a new physical copy fires
// Hooks.Programmed and (for secured pages) audit.KindCopy. The real FTL
// makes that pairing hold by construction: three reporter methods —
// noteDestroyed, noteInvalidated, noteCopy — each call one hook and emit
// its record, and every transition site calls a reporter. What is left
// to police is that nothing reports around them.
//
// Rule 1 (call sites): in a package named ftl, a call through an
// ftl.Hooks field, or to a trace collector's Audit or Invalidated,
// anywhere but inside one of the three reporters is a finding.
//
// Rule 2 (block-wide reporting, the PR 6 regression): after a
// Target.BLock call the whole block's stale data is gone, so reporting
// destruction by ranging over a slice derived from a function parameter
// (the pended subset) under-reports — evacuation-stale copies die with
// the block too, and their hook/audit windows never close. The fixed
// idiom iterates the block's page span (destroyStale); the analyzer
// flags a parameter-tainted range that calls noteDestroyed reachable
// after a BLock call.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Auditcheck verifies that FTL lifecycle transitions are reported only
// through the three reporters, and that post-bLock destruction is
// reported block-wide.
var Auditcheck = &Analyzer{
	Name: "auditcheck",
	Doc: "require every ftl page/block state transition to be reported through " +
		"noteDestroyed/noteInvalidated/noteCopy (the only callers of Hooks.* and the " +
		"audit/trace emitters), block-wide after a bLock",
	Run: runAuditcheck,
}

// reporters are the ftl methods allowed to call a lifecycle hook or
// emit its audit/trace record.
var reporters = map[string]bool{"noteDestroyed": true, "noteInvalidated": true, "noteCopy": true}

func runAuditcheck(pass *Pass) error {
	if pass.Pkg.Name() != "ftl" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			if fn == nil || !reporters[fn.Name.Name] {
				checkReportSites(pass, decl)
			}
			if fn != nil && fn.Body != nil {
				checkBlockwide(pass, fn)
			}
		}
	}
	return nil
}

// checkReportSites flags every direct lifecycle report under n.
func checkReportSites(pass *Pass, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := lifecycleReport(pass, call); ok {
			pass.Reportf(call.Pos(),
				"%s called outside noteDestroyed/noteInvalidated/noteCopy: lifecycle transitions "+
					"are reported only through the reporters, which pair each hook with its audit record",
				name)
		}
		return true
	})
}

// lifecycleReport names the hook call or audit/trace emission call is,
// if it is one.
func lifecycleReport(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if IsNamed(pass.TypeOf(sel.X), "ftl", "Hooks") {
		return "hooks." + sel.Sel.Name, true
	}
	if name := sel.Sel.Name; name == "Audit" || name == "Invalidated" {
		if fn := Callee(pass.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "trace" {
			return "tracer." + name, true
		}
	}
	return "", false
}

// --- rule 2: block-wide reporting after a bLock ------------------------

// checkBlockwide flags parameter-subset destruction reporting after a
// Target.BLock call (the PR 6 reentrant-IssueBLock bug shape).
func checkBlockwide(pass *Pass, fn *ast.FuncDecl) {
	tainted := paramSliceTaint(pass, fn)
	if len(tainted) == 0 {
		return
	}
	var blockCall token.Pos = token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cfn := Callee(pass.Info, call)
		if cfn != nil && cfn.Name() == "BLock" && cfn.Pkg() != nil && cfn.Pkg().Name() == "ftl" {
			if blockCall == token.NoPos || call.Pos() < blockCall {
				blockCall = call.Pos()
			}
			return false
		}
		return true
	})
	if blockCall == token.NoPos {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || rng.Pos() < blockCall {
			return true
		}
		if !mentionsTainted(pass, rng.X, tainted) {
			return true
		}
		reportsDestroy := false
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if fn := Callee(pass.Info, call); fn != nil && fn.Name() == "noteDestroyed" {
					reportsDestroy = true
				}
			}
			return !reportsDestroy
		})
		if reportsDestroy {
			pass.Reportf(rng.For,
				"destruction after a block-wide bLock is reported only for the pended subset "+
					"(range over a parameter-derived slice): evacuation-stale copies die with the "+
					"block too, so report block-wide over the page span (cf. destroyStale)")
			return false
		}
		return true
	})
}

// paramSliceTaint returns the objects reachable from the function's
// slice parameters through assignments, slicing, append, and range
// bindings — a syntactic fixpoint, no CFG needed.
func paramSliceTaint(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	if fn.Type.Params == nil {
		return tainted
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				tainted[obj] = true
			}
		}
	}
	if len(tainted) == 0 {
		return tainted
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if !mentionsTainted(pass, n.Rhs[i], tainted) {
						continue
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := objForIdent(pass, id); obj != nil && !tainted[obj] {
							tainted[obj] = true
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if !mentionsTainted(pass, n.X, tainted) {
					return true
				}
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e == nil {
						continue
					}
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						if obj := objForIdent(pass, id); obj != nil && !tainted[obj] {
							tainted[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return tainted
}

func objForIdent(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

func mentionsTainted(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
