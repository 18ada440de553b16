package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The invariants neither the compiler nor a run-twice test catches at
// the line that breaks them (DESIGN §6), as rules on the type-checked
// module, so each one matches objects, not names:
//
//   - determinism: a run is a pure function of its seeds, so non-test
//     code uses neither time.Now/time.Since (simulated time is
//     sim.Micros) nor a package-level function of math/rand or
//     math/rand/v2 other than the New* constructors (randomness comes
//     from per-instance seeded sources, cf. nand.WithSeed).
//   - chipop: the error of an exported *nand.Chip method carries the
//     pAP/bAP "page is locked" state, so no such call is a bare, go or
//     defer statement or has its error position assigned to _, in test
//     code too.
//   - reach: no subsystem without a production caller, so every
//     top-level func, method, type and var of a non-test file outside
//     bench/ and the test-helper packages (directory name ending in
//     "test") is reached from a main. The roots are every main func and
//     the init funcs and blank vars of the packages the mains import;
//     reach follows the objects each reached declaration uses. A type
//     does not reach its methods: a method of a reached type is reached
//     when it is used, when an interface method of its name is used, or
//     when its name is in stdlibMethods.
//   - reach, for stored state: an unexported, non-embedded struct field
//     of such a file that non-test code writes (=, op=, ++/--, a key of
//     a composite literal; an index of the field is the field) is read
//     by a declaration a main reaches, so neither a test, a test-helper
//     package nor a seam (below) is a reader, and bench's main is one. A
//     read that only computes the field's own next value (x.f =
//     append(x.f, v)) is no read.
//   - The one exemption is a declaration whose doc carries
//     testseamDirective: a probe that tests of other packages call, so
//     export_test.go cannot hold it. A main must not reach it, a test or
//     helper of another package must use it, and what it alone reaches
//     is exempt with it.

// stdlibMethods are the method names of standard-library interfaces
// (fmt, errors, sort, container/heap, io, encoding/json).
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true, "Close": true, "Seek": true,
	"WriteTo": true, "ReadFrom": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

const testseamDirective = "//repro:testseam"

// A pkg is one directory's Go files.
type pkg struct {
	dir, path            string      // path: the import path
	files, tests, xtests []*ast.File // non-test, in-package test, package x_test
	imports              []string    // the import paths of the module packages files import
}

// A module is the module's packages, and bench's non-test files, as
// type-checked. info holds every file's uses, whichever check saw the
// file last: a file shared by two checks yields two objects per
// declaration, so an object is known by its declaration's position.
type module struct {
	t    *testing.T
	fset *token.FileSet
	pkgs map[string]*pkg // by import path
	std  types.Importer
	base map[string]*types.Package // non-test packages, as other non-test packages see them
	info *types.Info
}

type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// load parses and type-checks files (path -> source; nil: read the path
// from disk) as the module repro with bench as repro/bench.
func load(t *testing.T, files map[string]any) *module {
	m := &module{t: t, fset: token.NewFileSet(), pkgs: map[string]*pkg{},
		base: map[string]*types.Package{}, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
	var names []string
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := path.Dir(name)
		p := m.pkgs[path.Join("repro", dir)]
		if p == nil {
			p = &pkg{dir: dir, path: path.Join("repro", dir)}
			m.pkgs[p.path] = p
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			p.tests = append(p.tests, f)
		default:
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				if ip, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(ip, "repro/") {
					p.imports = append(p.imports, ip)
				}
			}
		}
	}
	for _, p := range m.pkgs {
		m.importBase(p.path)
	}
	for _, p := range m.pkgs {
		m.checkTests(p)
	}
	return m
}

func (m *module) check(path string, files []*ast.File, imp types.Importer) *types.Package {
	p, err := (&types.Config{Importer: imp}).Check(path, m.fset, files, m.info)
	if err != nil {
		m.t.Fatal(err)
	}
	return p
}

func (m *module) importBase(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if m.base[path] == nil {
		m.base[path] = m.check(path, p.files, importFunc(m.importBase))
	}
	return m.base[path], nil
}

// checkTests type-checks x's test files as go test builds them: x with
// its in-package test files, and its x_test package against that x and
// against every module package that imports x, rebuilt on it.
func (m *module) checkTests(x *pkg) {
	if len(x.tests)+len(x.xtests) == 0 {
		return
	}
	built := map[string]*types.Package{}
	var imp importFunc
	imp = func(path string) (*types.Package, error) {
		p := m.pkgs[path]
		switch {
		case built[path] != nil:
		case p == x:
			built[path] = m.check(path, slices.Concat(x.files, x.tests), importFunc(m.importBase))
		case p != nil && m.imports(p, x, map[*pkg]bool{}):
			built[path] = m.check(path, p.files, imp)
		default:
			return m.importBase(path)
		}
		return built[path], nil
	}
	imp(x.path)
	if len(x.xtests) > 0 {
		m.check(x.path+"_test", x.xtests, imp)
	}
}

// imports reports whether p imports x, directly or transitively.
func (m *module) imports(p, x *pkg, seen map[*pkg]bool) bool {
	if seen[p] {
		return false
	}
	seen[p] = true
	for _, path := range p.imports {
		if q := m.pkgs[path]; q == x || q != nil && m.imports(q, x, seen) {
			return true
		}
	}
	return false
}

// helper reports whether dir holds a test-helper package or bench,
// whose declarations reach need not reach.
func helper(dir string) bool { return dir == "bench" || strings.HasSuffix(dir, "test") }

// findings returns one "position: rule: message" line per violation.
func (m *module) findings() []string {
	var out []string
	report := func(pos token.Pos, msg string) { out = append(out, m.fset.Position(pos).String()+": "+msg) }
	for _, p := range m.pkgs {
		if p.dir == "bench" {
			continue
		}
		for _, f := range p.files {
			m.lint(f, false, report)
		}
		for _, f := range slices.Concat(p.tests, p.xtests) {
			m.lint(f, true, report)
		}
	}
	m.fields(m.reach(report), report)
	slices.Sort(out)
	return out
}

// lint applies determinism and chipop to one file.
func (m *module) lint(f *ast.File, test bool, report func(token.Pos, string)) {
	dropped := func(e ast.Expr, blank func(i int) bool) {
		call, _ := ast.Unparen(e).(*ast.CallExpr)
		if call == nil {
			return
		}
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if sel == nil {
			return
		}
		fn, _ := m.info.Uses[sel.Sel].(*types.Func)
		if fn == nil || !fn.Exported() {
			return
		}
		sig := fn.Type().(*types.Signature)
		recv := sig.Recv()
		if recv == nil {
			return
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, _ := typ.(*types.Named); named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "repro/internal/nand" || named.Obj().Name() != "Chip" {
			return
		}
		for i := range sig.Results().Len() {
			if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) && blank(i) {
				report(call.Pos(), "chipop: Chip."+fn.Name()+" error dropped; it carries the lock state")
			}
		}
	}
	always := func(int) bool { return true }
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			fn, _ := m.info.Uses[n].(*types.Func)
			if test || fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				break
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					report(n.Pos(), "determinism: time."+fn.Name()+" is wall-clock; simulation state advances on sim.Micros only")
				}
			case "math/rand", "math/rand/v2":
				if !strings.HasPrefix(fn.Name(), "New") {
					report(n.Pos(), "determinism: rand."+fn.Name()+" draws from the shared global source; use a seeded *rand.Rand")
				}
			}
		case *ast.ExprStmt:
			dropped(n.X, always)
		case *ast.GoStmt:
			dropped(n.Call, always)
		case *ast.DeferStmt:
			dropped(n.Call, always)
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				dropped(n.Rhs[0], func(i int) bool {
					id, ok := n.Lhs[i].(*ast.Ident)
					return ok && id.Name == "_"
				})
			}
		}
		return true
	})
}

// A def is a top-level func, method, type, var or const of a non-test
// file.
type def struct {
	node           ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	name           string   // T.M for a method of T
	dir            string
	required, seam bool // required: reach must reach it
}

// use returns the object id uses, a generic method as declared.
func (m *module) use(id *ast.Ident) types.Object {
	if fn, ok := m.info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return m.info.Uses[id]
}

// reach reports every required def that no main reaches, and every
// misplaced testseamDirective. It returns the declarations a main
// reaches.
func (m *module) reach(report func(token.Pos, string)) (live []ast.Node) {
	defs := map[token.Pos]*def{}
	methods := map[token.Pos][]token.Pos{} // type -> its methods
	roots := map[*pkg][]token.Pos{}        // init and main funcs, blank vars
	var mains []*pkg
	for _, p := range m.pkgs {
		for _, f := range p.files {
			if f.Name.Name == "main" && !slices.Contains(mains, p) {
				mains = append(mains, p)
			}
			for _, d := range f.Decls {
				add := func(id *ast.Ident, node ast.Node, required bool, doc ...*ast.CommentGroup) {
					seam := slices.ContainsFunc(doc, func(g *ast.CommentGroup) bool {
						return g != nil && slices.ContainsFunc(g.List, func(c *ast.Comment) bool { return c.Text == testseamDirective })
					})
					defs[id.Pos()] = &def{node, id.Name, p.dir, required && !helper(p.dir), seam}
				}
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d, true, d.Doc)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						roots[p] = append(roots[p], d.Name.Pos())
					}
					if d.Recv != nil {
						typ := ast.Unparen(d.Recv.List[0].Type)
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						switch g := typ.(type) {
						case *ast.IndexExpr:
							typ = g.X
						case *ast.IndexListExpr:
							typ = g.X
						}
						id := typ.(*ast.Ident)
						tpos := m.info.Uses[id].Pos()
						methods[tpos] = append(methods[tpos], d.Name.Pos())
						defs[d.Name.Pos()].name = id.Name + "." + d.Name.Name
					}
				case *ast.GenDecl:
					var doc *ast.CommentGroup
					if !d.Lparen.IsValid() {
						doc = d.Doc
					}
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec, true, doc, spec.Doc)
						case *ast.ValueSpec: // constants are walked, not required
							for _, id := range spec.Names {
								add(id, spec, d.Tok == token.VAR && id.Name != "_", doc, spec.Doc)
								if d.Tok == token.VAR && id.Name == "_" {
									roots[p] = append(roots[p], id.Pos())
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[token.Pos]bool{}
	walked := map[ast.Node]bool{}
	called := map[string]bool{} // names of the interface methods used
	var mark func(pos token.Pos)
	mark = func(pos token.Pos) {
		d := defs[pos]
		if d == nil || reached[pos] {
			return
		}
		reached[pos] = true
		if walked[d.node] {
			return
		}
		walked[d.node] = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if obj := m.use(id); ok && obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						called[fn.Name()] = true
					}
				}
				mark(obj.Pos())
			}
			return true
		})
	}
	closeOver := func() {
		for grew := true; grew; {
			grew = false
			for typ, ms := range methods {
				for _, pos := range ms {
					if name := defs[pos].node.(*ast.FuncDecl).Name.Name; reached[typ] && !reached[pos] && (called[name] || stdlibMethods[name]) {
						mark(pos)
						grew = true
					}
				}
			}
		}
	}
	seen := map[*pkg]bool{}
	var rootsOf func(p *pkg)
	rootsOf = func(p *pkg) {
		if p != nil && !seen[p] {
			seen[p] = true
			for _, pos := range roots[p] {
				mark(pos)
			}
			for _, path := range p.imports {
				rootsOf(m.pkgs[path])
			}
		}
	}
	for _, p := range mains {
		rootsOf(p)
	}
	closeOver()
	for pos := range reached {
		live = append(live, defs[pos].node)
	}

	// Seams: none reached from a main, each used by a test or helper of
	// another package, and what they reach is exempt.
	used := map[token.Pos]bool{}
	for _, p := range m.pkgs {
		files := slices.Concat(p.tests, p.xtests)
		if helper(p.dir) {
			files = append(files, p.files...)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if obj := m.use(id); ok && obj != nil && defs[obj.Pos()] != nil && defs[obj.Pos()].dir != p.dir {
					used[obj.Pos()] = true
				}
				return true
			})
		}
	}
	for pos, d := range defs {
		switch {
		case !d.seam:
		case reached[pos]:
			report(pos, "testseam: "+d.name+" is reached from a main; drop the mark")
		case !used[pos]:
			report(pos, "testseam: "+d.name+" is used by no test or helper of another package; move it to export_test.go")
		}
	}
	for pos, d := range defs {
		if d.seam {
			mark(pos)
		}
	}
	closeOver()
	for pos, d := range defs {
		if d.required && !reached[pos] {
			report(pos, "reach: "+d.name+" is reached from no main; delete it or move it to a test file")
		}
	}
	return live
}

// fields reports every unexported, non-embedded struct field of a
// required file that non-test code writes and no live declaration reads.
func (m *module) fields(live []ast.Node, report func(token.Pos, string)) {
	type field struct {
		name          string // T.f for a field of the named struct type T
		written, read bool
	}
	fields := map[token.Pos]*field{}
	var files []*ast.File // non-test code
	for _, p := range m.pkgs {
		files = append(files, p.files...)
		if helper(p.dir) {
			continue
		}
		for _, f := range p.files {
			typ := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						typ[st] = n.Name.Name + "."
					}
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						for _, id := range fl.Names {
							if !id.IsExported() && id.Name != "_" {
								fields[id.Pos()] = &field{name: typ[n] + id.Name}
							}
						}
					}
				}
				return true
			})
		}
	}
	fieldOf := func(id *ast.Ident) *field {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			return fields[v.Pos()]
		}
		return nil
	}
	// target returns the field an assignment to e writes, if any.
	target := func(e ast.Expr) *ast.Ident {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				return x.Sel
			default:
				return nil
			}
		}
	}
	notRead := map[*ast.Ident]bool{} // the written fields, and uses that only feed them
	write := func(id *ast.Ident) *field {
		fl := fieldOf(id)
		if fl != nil {
			fl.written, notRead[id] = true, true
		}
		return fl
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id := target(lhs)
					if id == nil || n.Tok == token.DEFINE {
						continue
					}
					if fl := write(id); fl != nil && len(n.Lhs) == len(n.Rhs) {
						ast.Inspect(n.Rhs[i], func(r ast.Node) bool {
							if rid, ok := r.(*ast.Ident); ok && fieldOf(rid) == fl {
								notRead[rid] = true
							}
							return true
						})
					}
				}
			case *ast.IncDecStmt:
				if id := target(n.X); id != nil {
					write(id)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					write(id)
				}
			}
			return true
		})
	}
	for _, d := range live {
		ast.Inspect(d, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if fl := fieldOf(id); ok && fl != nil && !notRead[id] {
				fl.read = true
			}
			return true
		})
	}
	for pos, fl := range fields {
		if fl.written && !fl.read {
			report(pos, "reach: "+fl.name+" is written but read by nothing a main reaches; delete it and what feeds it")
		}
	}
}

func TestInvariants(t *testing.T) {
	// Each rule fires on the bug it exists for, look-alikes that a rule
	// on names misses included, and on nothing else.
	const chip = `package nand
type Chip struct{}
func (c *Chip) PLock(page int) error { return nil }
func (c *Chip) Read(page int) ([]byte, error) { return nil, nil }
`
	for _, c := range []struct {
		name  string
		files map[string]any
		want  []string // rule and subject of each finding, sorted
	}{
		{"wall clock and the global source", map[string]any{"cmd/x/main.go": `package main
import ("math/rand"; v2 "math/rand/v2"; tm "time")
func main() { _, _, _ = tm.Now(), rand.Intn(4)+v2.IntN(4), rand.New(rand.NewSource(1)) }
`}, []string{"determinism: rand.IntN", "determinism: rand.Intn", "determinism: time.Now"}},
		{"chip ops on a chip by any name", map[string]any{"internal/nand/chip.go": chip,
			"internal/nand/chip_test.go": "package nand\nfunc f(c *Chip) { c.PLock(0) }",
			"cmd/x/main.go": `package main
import "repro/internal/nand"
func main() {
	d := &nand.Chip{}
	_, _ = d.Read(0)
	defer d.PLock(0)
	if _, err := d.Read(1); err != nil { return }
}
`}, []string{"chipop: Chip.PLock", "chipop: Chip.PLock", "chipop: Chip.Read"}},
		{"reach by object", map[string]any{"internal/a/a.go": `package a
type A struct{}
func (A) Get() int { return 1 }
type B struct{}
func (B) Get() int { return 2 }
func (B) String() string { return "" }
type I interface{ M() }
func (B) M() {}
var Bs []B
func Dead() { helper() }
func helper() {}
`, "internal/a/atest/h.go": "package atest\nimport \"repro/internal/a\"\nfunc Helper() { a.Dead() }",
			"internal/orphan/o.go": "package orphan\nfunc F() {}",
			"cmd/x/main.go": `package main
import "repro/internal/a"
func main() { _, _ = a.A{}.Get(), a.Bs; var i a.I; i.M() }
`}, []string{"reach: B.Get", "reach: Dead", "reach: F", "reach: helper"}},
		{"test seams", map[string]any{"internal/a/a.go": `package a
//repro:testseam
func Reached() {}
//repro:testseam
func OwnTests() {}
//repro:testseam
func Probe() { probe() }
func probe() {}
`, "internal/a/a_test.go": "package a\nfunc f() { OwnTests() }",
			"internal/a/x_test.go": "package a_test\nimport \"repro/internal/a\"\nfunc f() { a.OwnTests() }",
			"internal/b/b_test.go": "package b\nimport \"repro/internal/a\"\nfunc f() { a.Probe(); a.Reached() }",
			"internal/b/b.go":      "package b",
			"cmd/x/main.go":        "package main\nimport \"repro/internal/a\"\nfunc main() { a.Reached() }",
		}, []string{"testseam: OwnTests", "testseam: Reached"}},
		{"stored state", map[string]any{"internal/a/a.go": `package a
type inner struct{}
func (inner) M() {}
type T struct {
	inner              // embedded: written by a key, read by none, exempt
	set, add, lit int  // written by =, by op= alone, by a key alone
	arr  [2]int        // written through an index
	grow []int         // read only to compute its own next value
	tested, helped int // read by a test, through a seam by a helper
	sel, benched int   // read by a selector, where only bench's main reaches
	fn  inner          // read through a method value
}
func New() *T {
	t := &T{lit: 1, inner: inner{}}
	t.set, t.tested, t.helped, t.sel, t.benched = 1, 2, 3, 4, 5
	t.add += 1
	t.arr[0]++
	t.grow = append(t.grow, 1)
	t.fn = inner{}
	_ = t.sel
	m := t.fn.M
	m()
	return t
}
func (t *T) Benched() int { return t.benched }
//repro:testseam
func (t *T) Helped() int { return t.helped }
`, "internal/a/a_test.go": "package a\nfunc f(t *T) int { return t.tested }",
			"internal/a/atest/h.go": "package atest\nimport \"repro/internal/a\"\nfunc H(t *a.T) int { return t.Helped() }",
			"bench/main.go":         "package main\nimport \"repro/internal/a\"\nfunc main() { _ = a.New().Benched() }",
			"cmd/x/main.go":         "package main\nimport \"repro/internal/a\"\nfunc main() { a.New() }",
		}, []string{"reach: T.add", "reach: T.arr", "reach: T.grow", "reach: T.helped", "reach: T.lit", "reach: T.set", "reach: T.tested"}},
	} {
		var got []string
		for _, finding := range load(t, c.files).findings() {
			got = append(got, strings.Join(strings.Fields(finding)[1:3], " "))
		}
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("negative control %q: got %q, want %q", c.name, got, c.want)
		}
	}

	// And on nothing in this module. bench/ is a module of its own, with
	// wall-clock measurement as its job: its non-test files are read
	// only as callers.
	files := map[string]any{}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		file = filepath.ToSlash(file)
		if d.IsDir() && file != "." && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(file, ".go") && !(path.Dir(file) == "bench" && strings.HasSuffix(file, "_test.go")) {
			files[file] = nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, finding := range load(t, files).findings() {
		t.Error(finding)
	}
}
