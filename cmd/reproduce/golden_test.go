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
	bin := buildReproduce(t)
	dir := t.TempDir()
	golden := []struct{ flag, file, sha string }{
		{"-trace-jsonl", "run.jsonl", "73cc814241757e59517420ab9281eb25809ed98410d6b3c1e9e75907db91c73e"},
		{"-trace", "run.trace.json", "28934b95089aab4545936963980726ff8d6e296feeb1a435241c771f76c9ca5d"},
		{"-stats-stream", "run.stream.jsonl", "4f1752828d31ddff62e2a78e8f6111e149e5189bc6f7fb789672359fdd1a6ff3"},
		{"-openmetrics", "run.om", "983be19ab1017050748ffa9e45c5bfb575c2401e7c647b8f360b6e67b55c1f2f"},
		{"-audit-json", "run.audit.json", "ab6367018b43a98878f990cd3df67f8d679a00b1acff4c24154539a2870cbbec"},
	}
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
		if got := hex.EncodeToString(sum[:]); got != g.sha {
			t.Errorf("%s %s: sha256 %s, want %s", g.flag, g.file, got, g.sha)
		}
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
// commit c3a280d writes.
func TestDeviceArtifactsGolden(t *testing.T) {
	bin := buildReproduce(t)
	dir := t.TempDir()
	matrix := filepath.Join(dir, "attack.json")
	for _, tc := range []struct {
		name string
		args []string
		file string // "" reads stdout
		sha  string
	}{
		{"table1/small", []string{"-fig", "table1", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"170068c28f87cde004c261bdbbeda45b387c26b3c6deb0d95e066ef6666e4d17"},
		{"table1/default", []string{"-fig", "table1", "-scale", "default", "-format", "csv", "-out", "-"}, "",
			"55bbafea61c6ebf436981991a8f5cd4c9482cf3518051687c4ec2d9df80bb171"},
		{"fig4/small", []string{"-fig", "4", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"cade97b406fbec348a1738a1eea7515beb057124e2a2a925e42dcfc4d95cdb30"},
		{"attack-json", []string{"-out", filepath.Join(dir, "attack.md"), "-attack-json", matrix}, matrix,
			"0700d8e9c8db2b42dd3a076720f8da1f9c6a76d1c8520538b21e64d747ce5a1c"},
		{"ablation/small", []string{"-fig", "ablation", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"23ec19699b9404ec3d62001181928fd178e4e4c8c425563dcd7f5147247312fe"},
		{"tinsec/small", []string{"-fig", "tinsec", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"6028f75f0b334a77dd19140132c554bfe1e7215442a6e3ee07ee5278e3f32b33"},
		{"fig6/small", []string{"-fig", "6", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"630450ce245dbb27126888eb72b3bda5fa3cd8e0acf4ae6b59cda1b6817a1064"},
		{"fig9/small", []string{"-fig", "9", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"494ddef07898f94354c95c7b19dc8dbee081af00d643f950dfe81f25ca5db4b2"},
		{"fig10/small", []string{"-fig", "10", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"d404f69c84727c4e635ad25da15c17547599f0969bb8d7a2d41f34f0c577e1f8"},
		{"fig11/small", []string{"-fig", "11", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"a6ea70ca9d124091b5d0e48e7d0d595af87101268e582ec3990b8d64e8ce9647"},
		{"fig12/small", []string{"-fig", "12", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"649928af82429899b7654b34977915ffb78c260f2e446505868c83c74ea85b8d"},
		{"overhead/small", []string{"-fig", "overhead", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"475e2c21828cf1d640dd42da0808ddd0c2b97744a7b106ee19d4aa9bf5932ed1"},
		{"temp/small", []string{"-fig", "temp", "-scale", "small", "-format", "csv", "-out", "-"}, "",
			"d8a229fb8912cd797cc7587fc6092c42d8d397b9d569bd86c74c3bccc7c83d9e"},
	} {
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
			if hex.EncodeToString(sum[:]) != tc.sha {
				t.Errorf("%v: sha256 %x, want %s", cmd.Args, sum, tc.sha)
			}
		})
	}
}
