package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// SimPackagePattern matches the import paths of simulation packages,
// where every run must be a pure function of the seed: the map-range
// ordering rule applies only inside them. Drivers may override it via
// the -simpkgs flag.
var SimPackagePattern = regexp.MustCompile(
	`(^|/)internal/(sim|ftl|ssd|nand|fault|sanitize|experiment|vertrace|chipchar)(/|$)`)

// globalRandFuncs are the math/rand package-level functions backed by
// the shared global source. Constructors (New, NewSource, NewZipf) are
// fine: per-instance *rand.Rand seeded from config is the required
// idiom (see nand.WithSeed, workload.Config.Seed).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// Determinism enforces that simulation results are a pure function of
// the configured seed. It flags:
//
//   - time.Now anywhere in the module (simulated time is sim.Micros;
//     wall-clock reads in profiling code and CLI progress output carry a
//     //secvet:allow determinism directive with the reason),
//   - math/rand global-source functions (rand.Intn, rand.Float64, ...)
//     anywhere in the module, and
//   - in simulation packages, `for range` over a map whose body appends
//     to a slice, sends on a channel, or feeds the trace/metrics layer —
//     the exact shape of the ftl.DrainPending bug PR 2 fixed, where map
//     iteration order leaked into the simulated command schedule.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand, and order-sensitive map iteration " +
		"that would make a simulation run depend on anything but its seed",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	inSim := SimPackagePattern.MatchString(pass.PkgPath)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				if inSim {
					checkMapRange(pass, f, n)
				}
			}
			return true
		})
	}
	return nil
}

// sortFuncs are the sort/slices entry points that normalize order.
var sortFuncs = map[string]bool{
	"Sort": true, "Slice": true, "Stable": true, "SliceStable": true,
	"SortFunc": true, "SortStableFunc": true, "Strings": true, "Ints": true,
}

// sortedAfter reports whether the slice variable appendCall appends to
// is handed to a sort.*/slices.Sort* call after the map range ends, so
// the iteration-order dependence is washed out before use.
func sortedAfter(pass *Pass, file *ast.File, rng *ast.RangeStmt, appendCall *ast.CallExpr) bool {
	if len(appendCall.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(appendCall.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	target := pass.Info.Uses[id]
	if target == nil {
		target = pass.Info.Defs[id]
	}
	if target == nil {
		return false
	}
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		fn := Callee(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || !sortFuncs[fn.Name()] {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if aid, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.Info.Uses[aid] == target {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	fn := Callee(pass.Info, call)
	if fn == nil {
		return
	}
	switch {
	case FuncFromPackage(fn, "time") && fn.Name() == "Now":
		pass.Reportf(call.Pos(),
			"time.Now is wall-clock: simulation state must advance on sim.Micros only "+
				"(allow with //secvet:allow determinism -- <reason> for profiling/CLI output)")
	case FuncFromPackage(fn, "math/rand") && globalRandFuncs[fn.Name()]:
		pass.Reportf(call.Pos(),
			"rand.%s draws from the shared global source: use a per-instance seeded *rand.Rand "+
				"plumbed through the config (cf. nand.WithSeed, workload.Config.Seed)", fn.Name())
	}
}

// checkMapRange flags map iterations whose body emits into an ordered
// sink, so the map's random iteration order becomes observable output.
// The collect-then-sort idiom is exempt: an append target that is later
// passed to sort.*/slices.Sort* has its order washed out — that is the
// shape of the DrainPending fix itself.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(rng.For,
				"map iteration order feeds a channel send at %s: iterate a sorted key slice instead "+
					"(the ftl.DrainPending bug shape)", pass.Fset.Position(n.Pos()))
			return false
		case *ast.CallExpr:
			if IsBuiltin(pass.Info, n, "append") {
				if !sortedAfter(pass, file, rng, n) {
					pass.Reportf(rng.For,
						"map iteration order feeds append at %s: sort the result before use, or iterate "+
							"a sorted key slice (the ftl.DrainPending bug shape)", pass.Fset.Position(n.Pos()))
				}
				return false
			}
			if fn := Callee(pass.Info, n); fn != nil && fn.Pkg() != nil {
				if name := fn.Pkg().Name(); name == "trace" || name == "metrics" {
					pass.Reportf(rng.For,
						"map iteration order feeds %s.%s at %s: trace/metrics streams must be "+
							"deterministic across runs", name, fn.Name(), pass.Fset.Position(n.Pos()))
					return false
				}
			}
		}
		return true
	})
}
