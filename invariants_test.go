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
//   - reach, by name: no API only tests call, so every exported
//     top-level func, method, type and var declared in non-test code
//     under internal/ appears as an identifier in some non-test file of
//     the module or of bench/, outside the test-helper packages (which
//     are exempt here too). Methods named for a standard-library
//     interface, which callers reach through that interface, are exempt.

var chipOps = map[string]bool{
	"Read": true, "Program": true, "Erase": true, "PLock": true, "BLock": true,
	"Scrub": true, "Copyback": true, "IsPageLocked": true, "IsBlockLocked": true,
	"PLockWL": true, "ProgramMulti": true, "ReadMulti": true,
}

// stdlibMethods are the method names of standard-library interfaces
// (fmt, errors, sort, container/heap, io, encoding/json).
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true, "Close": true, "Seek": true,
	"WriteTo": true, "ReadFrom": true, "MarshalJSON": true, "UnmarshalJSON": true,
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

// recvType returns the name of a method's receiver type (nil: fd is a
// func).
func recvType(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil {
		return nil
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	id, _ := typ.(*ast.Ident)
	return id
}

// decl is an exported top-level name a file declares.
type decl struct {
	name, pos string
	method    bool
}

// unreferenced returns, sorted, one finding per exported name declared
// under internal/ that none of the non-test files (path -> what lint
// read) uses, other than a method named for a stdlib interface. A file
// in a test-helper package neither declares nor uses.
func unreferenced(files map[string]facts) []string {
	uses := map[string]bool{}
	for file, f := range files {
		if !strings.HasSuffix(path.Dir(file), "test") {
			for _, u := range f.uses {
				uses[u] = true
			}
		}
	}
	var out []string
	for file, f := range files {
		if dir := path.Dir(file); !strings.HasPrefix(dir, "internal/") || strings.HasSuffix(dir, "test") {
			continue
		}
		for _, d := range f.decls {
			if !uses[d.name] && !(d.method && stdlibMethods[d.name]) {
				out = append(out, d.pos+": reach: "+d.name+" is referenced by no non-test file; delete it or move it to a test file")
			}
		}
	}
	slices.Sort(out)
	return out
}

// facts is what lint reads from one file: one "position: rule: message"
// line per violation, the directories of the module's packages the file
// imports, the exported top-level names it declares and the identifiers
// it uses otherwise.
type facts struct {
	findings, imports []string
	decls             []decl
	uses              []string
}

// lint reads one file (src nil: from filename).
func lint(t *testing.T, filename string, src any) (f facts) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "repro/") {
			f.imports = append(f.imports, strings.TrimPrefix(p, "repro/"))
		}
	}
	report := func(n ast.Node, msg string) {
		f.findings = append(f.findings, fset.Position(n.Pos()).String()+": "+msg)
	}
	declaring := map[*ast.Ident]bool{}
	declare := func(id *ast.Ident, method bool) {
		declaring[id] = true
		if id.IsExported() {
			f.decls = append(f.decls, decl{id.Name, fset.Position(id.Pos()).String(), method})
		}
	}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declare(d.Name, d.Recv != nil)
			if id := recvType(d); id != nil {
				declaring[id] = true // a method does not keep its own type alive
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declare(spec.Name, false)
				case *ast.ValueSpec:
					if d.Tok == token.VAR {
						for _, id := range spec.Names {
							declare(id, false)
						}
					}
				}
			}
		}
	}
	isTest := strings.HasSuffix(filename, "_test.go")
	recv := ""
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if !declaring[n] {
				f.uses = append(f.uses, n.Name)
			}
		case *ast.FuncDecl:
			recv = ""
			if id := recvType(n); id != nil && id.Name == "Chip" && len(n.Recv.List[0].Names) == 1 {
				recv = n.Recv.List[0].Names[0].Name
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
	return f
}

func TestInvariants(t *testing.T) {
	// Each rule fires on the bug it exists for.
	for _, bad := range []struct{ rule, body string }{
		{"determinism: time.Now", `import "time"; func f() { _ = time.Now() }`},
		{"determinism: rand.Intn", `import "math/rand"; func f() int { return rand.Intn(4) }`},
		{"chipop: result of Chip.PLock", `func f() { chip.PLock(a, 0) }`},
		{"chipop: error of Chip.Read", `func f() { res, _ := chip.Read(a, 0); use(res) }`},
	} {
		got := lint(t, "bad.go", "package p; "+bad.body).findings
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
	for _, c := range []struct {
		files map[string]string // path -> file body
		want  []string          // the names the rule reports
	}{
		{map[string]string{"internal/a/a.go": `func Dead() {}; func Live() {}; func init() { Live() }`}, []string{"Dead"}},
		{map[string]string{"internal/a/a.go": `type T struct{}; func (T) Dead() {}; var _ = T{}`}, []string{"Dead"}},
		{map[string]string{"internal/a/a.go": `type T struct{}; func (T) String() string { return "" }; var _ = T{}`}, nil},
		{map[string]string{"internal/a/a.go": `var Used = 1`, "cmd/x/main.go": `func main() { _ = a.Used }`}, nil},
		// A test-helper package is exempt, and it is no caller either.
		{map[string]string{"internal/a/a.go": `func Dead() {}`, "internal/a/atest/h.go": `func Helper() { a.Dead() }`}, []string{"Dead"}},
	} {
		files := map[string]facts{}
		for file, body := range c.files {
			files[file] = lint(t, file, "package p; "+body)
		}
		var got []string
		for _, finding := range unreferenced(files) {
			got = append(got, strings.Fields(strings.SplitAfter(finding, "reach: ")[1])[0])
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("reach by name, %q: got %q, want %q", c.files, got, c.want)
		}
	}
	// And on nothing in this module. bench/ is a module of its own, with
	// wall-clock measurement as its job: only its imports are read.
	imports := map[string][]string{}
	nonTest := map[string]facts{}
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
			f := lint(t, file, nil)
			if dir != "bench" {
				for _, finding := range f.findings {
					t.Error(finding)
				}
			}
			if !strings.HasSuffix(file, "_test.go") {
				imports[dir] = append(imports[dir], f.imports...)
				nonTest[file] = f
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
	for _, finding := range unreferenced(nonTest) {
		t.Error(finding)
	}
}
