package main_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/pintest"
)

// buildReproduce compiles the command into the test's temp dir.
func buildReproduce(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reproduce")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFig14aCSVGolden runs the built binary and compares its stdout
// byte for byte with the golden files. Their first three "#" header
// lines and every "fig14a," record are what the Fig. 14 CLI of commit
// 46eb9b3 printed (less the " shard-channels=0" that ended its
// "# parallelism:" line; the flag is gone); the study, title and paper
// lines are this renderer's "#" comments. The fault cell pins the
// per-chip injector wiring in ssd.New.
func TestFig14aCSVGolden(t *testing.T) {
	bin := buildReproduce(t)
	base := []string{"-scale", "small", "-fig", "14a", "-parallel", "1", "-format", "csv", "-out", "-"}
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

// TestTracedExportsGolden runs one traced cell with every exporter on and
// compares the SHA-256 of each file with what commit 39e5f0d wrote for
// the same command (~49 k events, so the event log, the gauges and the
// latency samples all span many storage chunks). run.om and
// run.stream.jsonl are pinned as the one metric set renders them: the
// exposition gained secssd_op_wait_us_total, lost the two unattributed
// families and writes its sums without an exponent; the stream's keys
// are the family names. Every value both files shared with that commit's
// is unchanged.
func TestTracedExportsGolden(t *testing.T) {
	golden := []struct{ flag, file string }{
		{"-trace-jsonl", "run.jsonl"},
		{"-trace", "run.trace.json"},
		{"-stats-stream", "run.stream.jsonl"},
		{"-openmetrics", "run.om"},
		{"-audit-json", "run.audit.json"},
	}
	var names []string
	for _, g := range golden {
		names = append(names, g.file)
	}
	pins := pintest.Group(t, "reproduce/traced", names...)
	bin := buildReproduce(t)
	dir := t.TempDir()
	args := []string{"-scale", "small", "-trace-policy", "secSSD", "-workloads", "MailServer", "-stats-interval", "10000"}
	for _, g := range golden {
		args = append(args, g.flag, filepath.Join(dir, g.file))
	}
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	for _, g := range golden {
		data, err := os.ReadFile(filepath.Join(dir, g.file))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		pins.Check(t, g.file, hex.EncodeToString(sum[:]))
	}
}

// TestDeviceArtifactsGolden pins the artifacts whose devices no other
// golden checks: Table 1 (the §3 study device) at small and default scale
// and Fig. 4 (the same studies, with two files watched each) at small
// scale, the default attack matrix (the compact core device), the Mobile ×
// secSSD ladder behind -fig ablation and -fig tinsec at small scale, and
// the chip-characterization figures (6, 9 to 12, overhead, temp), which
// read the lock operating points, k, the latencies and the ECC limit
// straight from the chip model. The Table 1 and attack SHA-256s are what
// commit 2fa281d wrote for the same commands; the ablation and tinsec
// ones were recorded while each figure still ran the ladder on its own;
// the chip figures' are what commit 3acd6dd wrote; Fig. 4's is what
// commit c3a280d writes. The whole default report (every figure, at the
// default worker count) is what commit 9638267 writes at one and at two
// workers.
func TestDeviceArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	matrix := filepath.Join(dir, "attack.json")
	cases := []struct {
		name string
		args []string
		file string // "" reads stdout
	}{
		{"table1/small", []string{"-fig", "table1", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"table1/default", []string{"-fig", "table1", "-scale", "default", "-format", "csv", "-out", "-"}, ""},
		{"fig4/small", []string{"-fig", "4", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"attack-json", []string{"-out", filepath.Join(dir, "attack.md"), "-attack-json", matrix}, matrix},
		{"ablation/small", []string{"-fig", "ablation", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"tinsec/small", []string{"-fig", "tinsec", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"fig6/small", []string{"-fig", "6", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"fig9/small", []string{"-fig", "9", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"fig10/small", []string{"-fig", "10", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"fig11/small", []string{"-fig", "11", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"fig12/small", []string{"-fig", "12", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"overhead/small", []string{"-fig", "overhead", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"temp/small", []string{"-fig", "temp", "-scale", "small", "-format", "csv", "-out", "-"}, ""},
		{"report/default", []string{"-scale", "default", "-out", "-"}, ""},
	}
	var names []string
	for _, tc := range cases {
		names = append(names, tc.name)
	}
	pins := pintest.Group(t, "reproduce/artifacts", names...)
	bin := buildReproduce(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v\n%s", cmd.Args, err, stderr.String())
			}
			if tc.file != "" {
				if got, err = os.ReadFile(tc.file); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(got)
			pins.Check(t, tc.name, hex.EncodeToString(sum[:]))
		})
	}
}
