package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/filesys"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/sanitize"
	"repro/internal/ssd"
)

func newCompact(t *testing.T, policy ftl.Policy, seed int64) *core.Device {
	t.Helper()
	d, err := core.New(core.Compact(policy, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newDevice(t *testing.T, policy ftl.Policy) *core.Device {
	t.Helper()
	return newCompact(t, policy, 5)
}

// A policy is named through sanitize.ByName, which rejects an unknown
// name, and New rejects a config without one.
func TestNewRejectsUnknownPolicy(t *testing.T) {
	if _, err := sanitize.ByName("wat"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	cfg := core.Compact(nil, 0)
	cfg.Policy = nil
	if _, err := core.New(cfg); err == nil {
		t.Fatal("config without a policy accepted")
	}
}

// Every policy builds a compact device, and nil selects secSSD.
func TestPolicyNamesResolve(t *testing.T) {
	for _, p := range sanitize.Policies() {
		if got := core.Compact(p, 0).Policy; got != p {
			t.Errorf("Compact(%s) policy %v", p.Name(), got)
		}
		newCompact(t, p, 0)
	}
	if got := core.Compact(nil, 0).Policy; got == nil || got.Name() != sanitize.SecSSD().Name() {
		t.Errorf("Compact(nil) policy %v, want secSSD", got)
	}
	newCompact(t, nil, 0)
}

func TestWriteReadDeleteRoundTrip(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	content := bytes.Repeat([]byte("the patient record 42 "), 300)
	if err := d.WriteFile("medical.db", content, core.Secure); err != nil {
		t.Fatal(err)
	}
	got, err := coretest.ReadFile(d, "medical.db")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, content) {
		t.Fatal("read-back mismatch")
	}
	if err := d.DeleteFile("medical.db"); err != nil {
		t.Fatal(err)
	}
	if _, err := coretest.ReadFile(d, "medical.db"); !errors.Is(err, filesys.ErrNotFound) {
		t.Fatal("deleted file still readable through the FS")
	}
}

func TestWriteFileReplaces(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	d.WriteFile("f", []byte("v1-original"), core.Secure)
	d.WriteFile("f", []byte("v2-replacement"), core.Secure)
	got, _ := coretest.ReadFile(d, "f")
	if !bytes.Contains(got, []byte("v2-replacement")) {
		t.Fatal("replacement content missing")
	}
	// C2: the old version must be gone from the raw chips.
	if hits := d.ForensicScan([]byte("v1-original")); len(hits) != 0 {
		t.Fatalf("old version recoverable at %v", hits)
	}
}

// The paper's headline demo: delete a secure file, then attack the chips.
func TestEvanescoDefeatsForensics(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	secret := bytes.Repeat([]byte("SSN 078-05-1120 "), 500)
	d.WriteFile("secrets.txt", secret, core.Secure)
	if hits := d.ForensicScan([]byte("SSN 078-05-1120")); len(hits) == 0 {
		t.Fatal("live data should be visible to the attacker")
	}
	if err := d.DeleteFile("secrets.txt"); err != nil {
		t.Fatal(err)
	}
	if hits := d.ForensicScan([]byte("SSN 078-05-1120")); len(hits) != 0 {
		t.Fatalf("deleted secure data recovered at %v", hits)
	}
	if stale := ftltest.ReadableStale(d.SSD().FTL(), d.SSD().Chips(), 0); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable on the raw chips", stale)
	}
	// No block erase was needed for the sanitization.
	if d.SSD().FTL().Stats().Erases != 0 {
		t.Fatal("deletion should not have required an erase")
	}
}

func TestBaselineFailsVerification(t *testing.T) {
	d := newDevice(t, sanitize.Baseline())
	d.WriteFile("leaky", bytes.Repeat([]byte("X"), 5000), core.Secure)
	d.DeleteFile("leaky")
	if len(ftltest.ReadableStale(d.SSD().FTL(), d.SSD().Chips(), 0)) == 0 {
		t.Fatal("baseline left no stale page readable; the oracle cannot see a leak")
	}
}

func TestInsecureFilesAreExemptAndLeak(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	d.WriteFile("cache.bin", bytes.Repeat([]byte("cached-thumbnail "), 300), core.Insecure)
	d.DeleteFile("cache.bin")
	// core.Insecure deletes don't lock: the data may linger (and that's fine).
	st := d.SSD().FTL().Stats()
	if st.PLocks != 0 || st.BLocks != 0 {
		t.Fatal("insecure delete must not consume lock operations")
	}
	if hits := d.ForensicScan([]byte("cached-thumbnail")); len(hits) == 0 {
		t.Fatal("insecure data should remain recoverable (no guarantee requested)")
	}
}

// Locks must hold across a 5-year retention window.
func TestLocksSurviveRetention(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	d.WriteFile("s", bytes.Repeat([]byte("EPHEMERAL"), 600), core.Secure)
	d.DeleteFile("s")
	d.AdvanceRetention(5 * 365)
	if hits := d.ForensicScan([]byte("EPHEMERAL")); len(hits) != 0 {
		t.Fatalf("data resurfaced after 5 years at %v", hits)
	}
	if stale := ftltest.ReadableStale(d.SSD().FTL(), d.SSD().Chips(), 0); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable on the raw chips", stale)
	}
}

// The sanitization guarantee must survive GC moving secured data around.
func TestSanitizationSurvivesChurn(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	d.WriteFile("durable", bytes.Repeat([]byte("KEEPME"), 500), core.Secure)
	if err := d.Churn(15000, 7); err != nil {
		t.Fatal(err)
	}
	if d.SSD().FTL().Stats().GCRuns == 0 {
		t.Fatal("churn did not trigger GC")
	}
	if stale := ftltest.ReadableStale(d.SSD().FTL(), d.SSD().Chips(), 0); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable on the raw chips", stale)
	}
	got, err := coretest.ReadFile(d, "durable")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte("KEEPME")) {
		t.Fatal("live file lost during churn")
	}
}

func TestPaperScaleGeometry(t *testing.T) {
	d, err := core.New(ssd.DefaultConfig(sanitize.SecSSD()))
	if err != nil {
		t.Fatal(err)
	}
	g := d.SSD().Geometry()
	if g.Chips != 8 || g.BlocksPerChip != 428 || g.PagesPerBlock != 576 {
		t.Fatalf("paper-scale geometry %+v", g)
	}
}

// The compact device is 2×2 chips of 32 blocks × 16 TLC wordlines with
// 4-KiB pages, and a field set on core.Compact's config reaches the device.
func TestOptionOverrides(t *testing.T) {
	d := newCompact(t, nil, 0)
	if g := d.SSD().Geometry(); g.Chips != 4 || g.BlocksPerChip != 32 || g.PagesPerBlock != 48 || g.PageBytes != 4096 {
		t.Fatalf("compact geometry %+v", g)
	}
	cfg := core.Compact(nil, 0)
	cfg.Channels, cfg.ChipsPerChannel = 1, 1
	cfg.Chip.Blocks, cfg.Chip.WLsPerBlock, cfg.Chip.PageBytes = 24, 8, 2048
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := d.SSD().Geometry()
	if g.Chips != 1 || g.BlocksPerChip != 24 || g.PageBytes != 2048 {
		t.Fatalf("overrides not applied: %+v", g)
	}
}

func TestForensicScanEdgeCases(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	if hits := d.ForensicScan(nil); hits != nil {
		t.Fatal("empty needle should find nothing")
	}
	if hits := d.ForensicScan([]byte("absent")); hits != nil {
		t.Fatal("fresh device should contain nothing")
	}
}

func TestReportExposesActivity(t *testing.T) {
	d := newDevice(t, sanitize.SecSSD())
	d.WriteFile("a", make([]byte, 10000), core.Secure)
	r := d.SSD().Report()
	if r.Stats.HostWrittenPages == 0 {
		t.Fatal("report shows no writes")
	}
}

// Example demonstrates the facade's primary flow: secure storage, secure
// deletion, and the failed forensic attack.
func Example() {
	dev, err := core.New(core.Compact(sanitize.SecSSD(), 1))
	if err != nil {
		panic(err)
	}
	secret := bytes.Repeat([]byte("secret-report "), 300)
	dev.WriteFile("report.doc", secret, core.Secure)
	dev.DeleteFile("report.doc")

	fmt.Printf("forensic hits after delete: %d\n", len(dev.ForensicScan([]byte("secret-report"))))
	fmt.Printf("erases used: %d\n", dev.SSD().FTL().Stats().Erases)
	fmt.Printf("sanitization verified: %v\n", len(ftltest.ReadableStale(dev.SSD().FTL(), dev.SSD().Chips(), 0)) == 0)
	// Output:
	// forensic hits after delete: 0
	// erases used: 0
	// sanitization verified: true
}
