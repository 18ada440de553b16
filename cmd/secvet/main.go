// Command secvet runs the simulator's custom invariant checkers (the
// internal/analysis suite): determinism, aliasing, lockcheck,
// tracecheck and auditcheck (lifecycle reports go through the three ftl
// reporters; post-bLock destruction is reported block-wide). It is a
// multichecker in the x/tools mold, runnable two ways:
//
// Standalone over package patterns (exit 2 when findings exist):
//
//	go run ./cmd/secvet ./...
//
// Machine-readable reports go to stdout with -json or -sarif (exit
// semantics unchanged); -debug prints loader statistics to stderr.
//
// As a go vet tool, speaking vet's unitchecker protocol (-V=full,
// -flags, and the per-package vet.cfg invocation):
//
//	go build -o /tmp/secvet ./cmd/secvet
//	go vet -vettool=/tmp/secvet ./...
//
// Findings are suppressed per line with an allow directive that must
// carry a reason:
//
//	//secvet:allow determinism -- progress output, not simulation state
//
// See DESIGN.md §6 for the rule catalogue.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"repro/internal/analysis"
)

const (
	exitClean    = 0
	exitError    = 1
	exitFindings = 2
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// go vet protocol preludes, dispatched before normal flag parsing.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			printVersion()
			return exitClean
		case "-flags", "--flags":
			printFlagDefs()
			return exitClean
		}
	}

	fs := flag.NewFlagSet("secvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: secvet [flags] [package patterns]\n\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	tests := fs.Bool("tests", true, "also analyze test files (matches go vet)")
	simpkgs := fs.String("simpkgs", "", "override the simulation-package regexp the determinism map-range rule is scoped to")
	jsonOut := fs.Bool("json", false, "write findings to stdout as JSON instead of text to stderr")
	sarifOut := fs.Bool("sarif", false, "write findings to stdout as SARIF 2.1.0 instead of text to stderr")
	debug := fs.Bool("debug", false, "print loader statistics to stderr")
	enabled := make(map[string]*bool)
	for _, a := range analysis.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "secvet: -json and -sarif are mutually exclusive")
		return exitError
	}
	if *simpkgs != "" {
		re, err := regexp.Compile(*simpkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secvet: bad -simpkgs: %v\n", err)
			return exitError
		}
		analysis.SimPackagePattern = re
	}
	var analyzers []*analysis.Analyzer
	for _, a := range analysis.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitcheck(rest[0], analyzers)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}

	pkgs, err := analysis.Load(analysis.LoadOptions{Tests: *tests}, rest...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secvet: %v\n", err)
		return exitError
	}
	badTypes := false
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "secvet: typecheck %s: %v\n", p.PkgPath, te)
			badTypes = true
		}
	}
	if badTypes {
		return exitError
	}
	diags, err := analysis.RunPackages(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secvet: %v\n", err)
		return exitError
	}
	if *debug {
		st := analysis.Stats()
		fmt.Fprintf(os.Stderr, "secvet: loader: %d packages in %v (%d go list runs, %d cache hits)\n",
			st.Packages, st.Elapsed.Round(time.Millisecond), st.ListInvocations, st.CachedLists)
	}
	switch {
	case *jsonOut:
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "secvet: %v\n", err)
			return exitError
		}
	case *sarifOut:
		if err := writeSARIF(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "secvet: %v\n", err)
			return exitError
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) > 0 {
		return exitFindings
	}
	return exitClean
}

// printVersion emits the tool-ID line the go command demands from a
// -vettool ("<name> version <...>"), keyed to the binary's own hash so
// vet results are cache-invalidated when the tool changes.
func printVersion() {
	name := filepath.Base(os.Args[0])
	sum := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			h := sha256.Sum256(data)
			sum = fmt.Sprintf("%x", h[:12])
		}
	}
	fmt.Printf("%s version devel buildID=%s\n", name, sum)
}

// printFlagDefs answers the go command's `-flags` query with the JSON
// flag metadata it uses to validate `go vet` command lines.
func printFlagDefs() {
	fmt.Print("[")
	for i, a := range analysis.All() {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Printf(`{"Name":%q,"Bool":true,"Usage":%q}`, a.Name, "enable the "+a.Name+" analyzer")
	}
	fmt.Println("]")
}
