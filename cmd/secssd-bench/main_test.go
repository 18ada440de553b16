package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestFig14aCSVGolden runs the built binary and compares its stdout
// byte for byte with what commit 46eb9b3 printed for the same command
// (less the " shard-channels=0" that ended its "# parallelism:" header
// line; the flag is gone). The fault cell pins the per-chip injector
// wiring in ssd.New.
func TestFig14aCSVGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "secssd-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base := []string{"-scale", "small", "-fig", "14a", "-parallel", "1", "-csv"}
	for _, tc := range []struct {
		golden string
		extra  []string
	}{
		{"fig14a_small.csv", nil},
		{"fig14a_small_fault.csv", []string{"-fault-rate", "1e-3", "-fault-seed", "3"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(bin, slices.Concat(base, tc.extra)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v\n%s", cmd.Args, err, stderr.String())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v: stdout differs from testdata/%s\n got:\n%s\nwant:\n%s", cmd.Args, tc.golden, got, want)
			}
		})
	}
}
