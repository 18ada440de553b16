package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
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
//   - reach: no subsystem without a production caller, so every package
//     under internal/ is imported, directly or through other packages,
//     by a non-test file under cmd/ or bench/. Test-helper packages
//     (name ending in "test") are exempt.

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

// unreached returns, sorted, the internal packages of the import graph
// (package directory -> the module's package directories its non-test
// files import) that no package under a root directory reaches.
func unreached(imports map[string][]string, roots ...string) []string {
	seen := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			for _, imp := range imports[dir] {
				visit(imp)
			}
		}
	}
	for dir := range imports {
		if slices.ContainsFunc(roots, func(r string) bool { return dir == r || strings.HasPrefix(dir, r+"/") }) {
			visit(dir)
		}
	}
	var out []string
	for dir := range imports {
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(dir, "test") && !seen[dir] {
			out = append(out, dir)
		}
	}
	slices.Sort(out)
	return out
}

// lint returns one "position: rule: message" line per violation (src
// nil: the file is read from filename), and the directories of the
// module's packages the file imports.
func lint(t *testing.T, filename string, src any) (findings, imports []string) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "repro/") {
			imports = append(imports, strings.TrimPrefix(p, "repro/"))
		}
	}
	report := func(n ast.Node, msg string) {
		findings = append(findings, fset.Position(n.Pos()).String()+": "+msg)
	}
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
	return findings, imports
}

func TestInvariants(t *testing.T) {
	// Each rule fires on the bug it exists for.
	for _, bad := range []struct{ rule, body string }{
		{"determinism: time.Now", `import "time"; func f() { _ = time.Now() }`},
		{"determinism: rand.Intn", `import "math/rand"; func f() int { return rand.Intn(4) }`},
		{"chipop: result of Chip.PLock", `func f() { chip.PLock(a, 0) }`},
		{"chipop: error of Chip.Read", `func f() { res, _ := chip.Read(a, 0); use(res) }`},
	} {
		got, _ := lint(t, "bad.go", "package p; "+bad.body)
		if len(got) != 1 || !strings.Contains(got[0], bad.rule) {
			t.Errorf("negative control %q: got %q, want that one finding", bad.rule, got)
		}
	}
	graph := map[string][]string{
		"cmd/x": {"internal/a"}, "internal/a": {"internal/b"}, "internal/b": nil,
		"internal/b/btest": nil, "internal/orphan": {"internal/b"}, "examples/y": {"internal/orphan"},
	}
	if got := unreached(graph, "cmd", "bench"); !slices.Equal(got, []string{"internal/orphan"}) {
		t.Errorf("negative control reach: got %q, want internal/orphan alone", got)
	}
	// And on nothing in this module. bench/ is a module of its own, with
	// wall-clock measurement as its job: only its imports are read.
	imports := map[string][]string{}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		file = filepath.ToSlash(file)
		dir := path.Dir(file)
		if d.IsDir() && file != "." && (dir == "bench" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(file, ".go") {
			findings, imps := lint(t, file, nil)
			if dir != "bench" {
				for _, finding := range findings {
					t.Error(finding)
				}
			}
			if !strings.HasSuffix(file, "_test.go") {
				imports[dir] = append(imports[dir], imps...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range unreached(imports, "cmd", "bench") {
		t.Errorf("%s: reach: no non-test file under cmd/ or bench/ imports this package, directly or transitively", dir)
	}
}
