package ssd

import (
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/nand/vth"
	"repro/internal/sanitize"
)

// churn drives n random single-page secured writes through the device.
func churn(t *testing.T, s *SSD, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	logical := int64(s.LogicalPages())
	for i := 0; i < n; i++ {
		if _, err := s.Submit(blockio.Request{
			Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 1,
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// TestFaultSeedDefaultsToDeviceSeed: one seed reproduces the whole run
// unless a fault seed is set explicitly.
func TestFaultSeedDefaultsToDeviceSeed(t *testing.T) {
	cfg := smallConfig(sanitize.SecSSD())
	cfg.Fault = fault.Config{ProgramFail: 0.1}
	cfg.applyDefaults()
	if cfg.Fault.Seed != cfg.Seed {
		t.Fatalf("fault seed %d, want device seed %d", cfg.Fault.Seed, cfg.Seed)
	}
	cfg.Fault.Seed = 99
	cfg.applyDefaults()
	if cfg.Fault.Seed != 99 {
		t.Fatalf("explicit fault seed overridden to %d", cfg.Fault.Seed)
	}
}

// TestFaultedDeviceSurvivesChurn runs a write-heavy workload at a high
// injection rate and checks the recovery ladder's books balance: every
// failure has its matching recovery action and the device keeps serving.
func TestFaultedDeviceSurvivesChurn(t *testing.T) {
	cfg := smallConfig(sanitize.SecSSD())
	cfg.Fault = fault.Uniform(0.01, 31)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.prefill(0.6, true); err != nil {
		t.Fatal(err)
	}
	churn(t, s, 1, 3000)

	fc := s.FaultCounts()
	if fc.ProgramFails == 0 {
		t.Fatal("no program failures injected at rate 0.01 over a 3000-write churn")
	}
	st := s.FTL().Stats()
	if st.ProgramFailures != fc.ProgramFails {
		t.Fatalf("FTL saw %d program failures, injector produced %d", st.ProgramFailures, fc.ProgramFails)
	}
	if st.ProgramRetries != st.ProgramFailures {
		t.Fatalf("ProgramRetries %d != ProgramFailures %d (no write aborted at this rate)",
			st.ProgramRetries, st.ProgramFailures)
	}
	if st.LockEscalations != st.PLockFailures {
		t.Fatalf("LockEscalations %d != PLockFailures %d", st.LockEscalations, st.PLockFailures)
	}
	if st.RecoveryErases != st.BLockFailures {
		t.Fatalf("RecoveryErases %d != BLockFailures %d", st.RecoveryErases, st.BLockFailures)
	}
	if st.RetiredBlocks != st.EraseFailures {
		t.Fatalf("RetiredBlocks %d != EraseFailures %d", st.RetiredBlocks, st.EraseFailures)
	}
	retired := 0
	for p := range s.Geometry().TotalPages() {
		if s.FTL().Status(ftl.PPA(p)) == ftl.PageRetired {
			retired++
		}
	}
	if retired != int(st.RetiredBlocks)*s.Geometry().PagesPerBlock {
		t.Fatalf("%d retired pages inconsistent with %d retired blocks", retired, st.RetiredBlocks)
	}
}

// TestFaultGoldenDeterminism: identical seeds and workload produce a
// bit-identical fault campaign — counters, stats and simulated makespan —
// while a different fault seed draws a different schedule.
func TestFaultGoldenDeterminism(t *testing.T) {
	run := func(faultSeed int64) (Report, fault.Counts) {
		cfg := smallConfig(sanitize.SecSSD())
		cfg.Fault = fault.Uniform(0.02, faultSeed)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		churn(t, s, 5, 2000)
		return s.Report(), s.FaultCounts()
	}
	r1, c1 := run(11)
	r2, c2 := run(11)
	if c1 != c2 {
		t.Fatalf("fault counts diverged between identical runs:\n%+v\n%+v", c1, c2)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("stats diverged between identical runs:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	if r1.Elapsed != r2.Elapsed || r1.ReadRetries != r2.ReadRetries {
		t.Fatalf("timing diverged: %v/%d vs %v/%d", r1.Elapsed, r1.ReadRetries, r2.Elapsed, r2.ReadRetries)
	}
	if _, c3 := run(12); c3 == c1 {
		t.Fatalf("fault seeds 11 and 12 drew identical campaigns: %+v", c3)
	}
}

// TestReadRetryAbsorbsBitErrors: at a raw BER near the ECC limit many
// reads come back uncorrectable and are absorbed by the retry loop; the
// host keeps getting data and the retries are accounted in the report.
func TestReadRetryAbsorbsBitErrors(t *testing.T) {
	cfg := smallConfig(sanitize.SecSSD())
	cfg.Fault = fault.Config{ReadBER: vth.ECCLimitRBER, Seed: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, s.Geometry().PageBytes)
	for i := range data {
		data[i] = byte(rng.Int())
	}
	for lpa := int64(0); lpa < 64; lpa++ {
		if _, err := s.Submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		if _, err := s.Submit(blockio.Request{Op: blockio.OpRead, LPA: rng.Int63n(64), Pages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Report()
	if r.ReadRetries == 0 {
		t.Fatal("no read retries at a BER equal to the ECC limit")
	}
	if fc := s.FaultCounts(); fc.ReadUncorrectable == 0 || fc.ReadBitErrors == 0 {
		t.Fatalf("injector read counters empty: %+v", fc)
	}
}
