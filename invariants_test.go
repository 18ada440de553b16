package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The invariants neither the compiler nor a run-twice test catches at
// the line that breaks them (DESIGN §6), as syntactic rules:
//
//   - determinism: a run is a pure function of its seeds, so non-test
//     code calls neither time.Now/time.Since (simulated time is
//     sim.Micros) nor math/rand's package-level functions (randomness
//     comes from per-instance seeded sources, cf. nand.WithSeed).
//   - chipop: the error of a nand.Chip operation carries the pAP/bAP
//     "page is locked" state, so no chip op is a bare statement or has
//     its error position assigned to _. Without types, a chip is an
//     expression whose last name contains "chip", or the receiver of a
//     Chip method.

var chipOps = map[string]bool{
	"Read": true, "Program": true, "Erase": true, "PLock": true, "BLock": true,
	"Scrub": true, "Copyback": true, "IsPageLocked": true, "IsBlockLocked": true,
	"PLockWL": true, "ProgramMulti": true, "ReadMulti": true,
}

// randConstructors do not draw from math/rand's shared global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// chipOp returns the operation's name when e is a call <chip>.<op>(...);
// recv is the receiver name of the enclosing Chip method, if any.
func chipOp(e ast.Expr, recv string) string {
	call, _ := e.(*ast.CallExpr)
	if call == nil {
		return ""
	}
	sel, _ := call.Fun.(*ast.SelectorExpr)
	if sel == nil || !chipOps[sel.Sel.Name] {
		return ""
	}
	x := sel.X
	for done := false; !done; {
		switch v := x.(type) {
		case *ast.IndexExpr:
			x = v.X
		case *ast.ParenExpr:
			x = v.X
		case *ast.SelectorExpr:
			x, done = v.Sel, true
		default:
			done = true
		}
	}
	if id, ok := x.(*ast.Ident); ok && (id.Name == recv || strings.Contains(strings.ToLower(id.Name), "chip")) {
		return sel.Sel.Name
	}
	return ""
}

// lint returns one "position: rule: message" line per violation (src
// nil: the file is read from filename).
func lint(t *testing.T, filename string, src any) []string {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	report := func(n ast.Node, msg string) { out = append(out, fset.Position(n.Pos()).String()+": "+msg) }
	isTest := strings.HasSuffix(filename, "_test.go")
	recv := ""
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			recv = ""
			if n.Recv != nil && len(n.Recv.List[0].Names) == 1 {
				typ := n.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok && id.Name == "Chip" {
					recv = n.Recv.List[0].Names[0].Name
				}
			}
		case *ast.CallExpr: // an identifier named time or rand is taken to be the package
			sel, _ := n.Fun.(*ast.SelectorExpr)
			if sel == nil || isTest {
				break
			}
			switch pkg, _ := sel.X.(*ast.Ident); {
			case pkg == nil:
			case pkg.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since"):
				report(n, "determinism: time."+sel.Sel.Name+" is wall-clock; simulation state advances on sim.Micros only")
			case pkg.Name == "rand" && !randConstructors[sel.Sel.Name]:
				report(n, "determinism: rand."+sel.Sel.Name+" draws from the shared global source; use a seeded *rand.Rand")
			}
		case *ast.ExprStmt:
			if op := chipOp(n.X, recv); op != "" {
				report(n, "chipop: result of Chip."+op+" discarded; its error carries the lock state")
			}
		case *ast.AssignStmt:
			last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
			if op := chipOp(n.Rhs[0], recv); op != "" && ok && last.Name == "_" {
				report(n, "chipop: error of Chip."+op+" assigned to _; it carries the lock state")
			}
		}
		return true
	})
	return out
}

func TestInvariants(t *testing.T) {
	// Each rule fires on the bug it exists for.
	for _, bad := range []struct{ rule, body string }{
		{"determinism: time.Now", `import "time"; func f() { _ = time.Now() }`},
		{"determinism: rand.Intn", `import "math/rand"; func f() int { return rand.Intn(4) }`},
		{"chipop: result of Chip.PLock", `func f() { chip.PLock(a, 0) }`},
		{"chipop: error of Chip.Read", `func f() { res, _ := chip.Read(a, 0); use(res) }`},
	} {
		got := lint(t, "bad.go", "package p; "+bad.body)
		if len(got) != 1 || !strings.Contains(got[0], bad.rule) {
			t.Errorf("negative control %q: got %q, want that one finding", bad.rule, got)
		}
	}
	// And on nothing in this module. bench/ is a module of its own, with
	// wall-clock measurement as its job.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "bench" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			for _, finding := range lint(t, path, nil) {
				t.Error(finding)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
