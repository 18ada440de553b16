package main_test

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSecvet compiles the secvet binary once per test into a temp dir.
func buildSecvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "secvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runSecvet runs the binary against a fixture module and returns its
// exit code and stderr.
func runSecvet(t *testing.T, bin, dir string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running secvet in %s: %v\n%s", dir, err, stderr.String())
	}
	return ee.ExitCode(), stderr.String()
}

// The acceptance check from the issue: reintroducing the DrainPending
// map-range bug, leaking ReadResult.Data into a struct field, or firing
// a destruction hook outside its reporter (so without its ledger event)
// must make secvet exit nonzero, naming the violated rule.
func TestSecvetFailsOnBadModule(t *testing.T) {
	bin := buildSecvet(t)
	code, out := runSecvet(t, bin, filepath.Join("testdata", "badmodule"))
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (findings)\n%s", code, out)
	}
	for _, want := range []string{
		"determinism: map iteration order feeds append",
		"aliasing: nand.ReadResult.Data stored outside the read's statement block",
		"auditcheck: hooks.Destroyed called outside noteDestroyed/noteInvalidated/noteCopy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSecvetJSONOutput checks the -json emitter: findings on stdout as
// a parseable document, exit code still 2.
func TestSecvetJSONOutput(t *testing.T) {
	bin := buildSecvet(t)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = filepath.Join("testdata", "badmodule")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2\nstderr: %s", err, stderr.String())
	}
	var rep struct {
		Count    int
		Findings []struct {
			File, Rule, Message string
			Line                int
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if rep.Count == 0 || len(rep.Findings) != rep.Count {
		t.Fatalf("count = %d, findings = %d, want equal and nonzero", rep.Count, len(rep.Findings))
	}
	rules := make(map[string]bool)
	for _, f := range rep.Findings {
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		rules[f.Rule] = true
	}
	for _, want := range []string{"determinism", "aliasing", "auditcheck"} {
		if !rules[want] {
			t.Errorf("no %s finding in JSON output:\n%s", want, stdout.String())
		}
	}
}

// TestSecvetSARIFOutput checks the -sarif emitter shape: version,
// driver name, and at least one result with a location.
func TestSecvetSARIFOutput(t *testing.T) {
	bin := buildSecvet(t)
	cmd := exec.Command(bin, "-sarif", "./...")
	cmd.Dir = filepath.Join("testdata", "badmodule")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2", err)
	}
	var log struct {
		Version string
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct{ ID string }
				}
			}
			Results []struct {
				RuleID    string
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct{ URI string }
						Region           struct{ StartLine int }
					}
				}
			}
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version = %q, runs = %d, want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "secvet" || len(run.Tool.Driver.Rules) == 0 {
		t.Fatalf("driver = %+v, want secvet with a rule catalogue", run.Tool.Driver)
	}
	if len(run.Results) == 0 {
		t.Fatal("no results in SARIF output")
	}
	for _, r := range run.Results {
		if r.RuleID == "" || len(r.Locations) == 0 ||
			r.Locations[0].PhysicalLocation.ArtifactLocation.URI == "" ||
			r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("incomplete SARIF result: %+v", r)
		}
	}
}

// TestSecvetExclusiveFormats rejects -json together with -sarif.
func TestSecvetExclusiveFormats(t *testing.T) {
	bin := buildSecvet(t)
	cmd := exec.Command(bin, "-json", "-sarif", "./...")
	cmd.Dir = filepath.Join("testdata", "goodmodule")
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want code 1", err)
	}
}

func TestSecvetPassesOnGoodModule(t *testing.T) {
	bin := buildSecvet(t)
	code, out := runSecvet(t, bin, filepath.Join("testdata", "goodmodule"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
}
