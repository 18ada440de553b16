package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"testing"
)

// The harness re-executes its own binary for every measured pass; in a test
// that binary is the test binary, so child mode is entered here.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		if err := childMain(raw); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// harness measures by, and to the limits of the file's contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads / %d end-to-end / %d per-layer exceed 8 / 16 / 128", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from the harness's %q (or its why is over 200 characters)", i, w.Name, workloads[i].Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, m := range b.EndToEnd {
		unique(m.Name)
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Bound != d.Bound || m.Better != "lower" || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v differs from the harness's %+v", i, m, d)
		}
	}
	for _, m := range b.PerLayer {
		unique(m.Name)
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload through the
// BENCHMARK.json form at SmallScale geometry and reduced volume and checks
// that exactly the declared metric names come out, with the declared units,
// and that every correctness check passes.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		for mode, want := range []map[string]string{endToEnd, perLayer} {
			var out bytes.Buffer
			if err := contractRun(w.Name, 7, 0, mode == 1, true, &out); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, mode, err)
			}
			var line contractLine
			dec := json.NewDecoder(&out)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, mode, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w.Name, mode, line.Correct, line.Failed, line.Attempted)
			}
			for name, m := range line.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace %d: printed %s [%s], BENCHMARK.json has unit %q", w.Name, mode, name, m.Unit, unit)
				}
			}
			for name := range want {
				m, ok := line.Metrics[name]
				if !ok {
					t.Errorf("%s trace %d: %s not printed", w.Name, mode, name)
				}
				if mode == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

// TestCheckCountsFailures feeds check the ways a pass can go wrong.
func TestCheckCountsFailures(t *testing.T) {
	w := workloadDef{Name: "w", Traced: true}
	good := func() pass {
		c := cellResult{Label: "c", Digest: "d", AuditClean: true}
		c.Report.Requests = 10
		study := childResult{runResult: runResult{Cells: []cellResult{c, c}}}
		twin := childResult{runResult: runResult{Cells: slices.Clone(study.Cells)}}
		return pass{Study: study, Twin: &twin}
	}
	if v := check(w, []pass{good(), good()}, true); v.Attempted != 40 || v.Failed != 0 || len(v.Failures) != 0 {
		t.Fatalf("clean passes: %+v", v)
	}
	cases := map[string]func(p *pass){
		"error":        func(p *pass) { p.Study.Cells[1].Err = "panic: out of space" },
		"digest moved": func(p *pass) { p.Study.Cells[1].Digest, p.Twin.Cells[1].Digest = "x", "x" },
		"twin differs": func(p *pass) {
			p.Twin = &childResult{runResult: runResult{Cells: []cellResult{{Digest: "d"}, {Digest: "y"}}}}
		},
		"open copies": func(p *pass) { p.Study.Cells[1].OpenCopies = 1 },
	}
	for name, breakIt := range cases {
		second := good()
		breakIt(&second)
		if v := check(w, []pass{good(), second}, true); v.Failed != 10 || len(v.Failures) != 1 {
			t.Errorf("%s: %+v", name, v)
		}
	}
	bad := good()
	bad.Study.Cells[0].Report.ReadFailures = 3
	if v := check(w, []pass{bad}, true); v.Failed != 3 || len(v.Failures) != 0 {
		t.Errorf("read failures: %+v", v)
	}
	if v := check(w, []pass{good()}, false); v.Failed != 20 {
		t.Errorf("attack matrix failed: %+v", v)
	}
}
