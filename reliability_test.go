package repro

// Reliability suite: the fault-injection campaigns behind the CI
// `reliability` job. The property under test is the paper's security
// guarantee taken adversarially: after any completed secure deletion, no
// byte of the deleted data is recoverable from a raw dump of any chip —
// no matter which injected failures forced the recovery ladder (program
// retry + quarantine, pLock→bLock escalation, forced copy-out + erase,
// block retirement) along the way, and including the states the device
// passes through mid-recovery (each scan runs right after a deletion
// whose ladder may still have left blocks locked, freed, or retired).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// phaseSum totals an audit phase breakdown.
func phaseSum(b audit.PhaseBreakdown) int64 {
	return b.QueueWait + b.BatchWait + b.Reopen + b.Pulse + b.Ladder
}

// faultDevice builds a compact Evanesco device with deterministic fault
// injection. The geometry is kept small so a single campaign (and each
// fuzz iteration) stays fast while still spanning 4 chips. tr optionally
// attaches a telemetry collector (nil: untraced).
func faultDevice(t testing.TB, rate float64, seed int64, batched bool, tr trace.Collector) *core.Device {
	t.Helper()
	return compactDevice(t, core.PolicyEvanesco, seed, func(cfg *ssd.Config) {
		cfg.Chip.Blocks, cfg.Chip.WLsPerBlock = 16, 8
		cfg.Fault = fault.Uniform(rate, seed)
		cfg.Trace = tr
		if batched {
			cfg.Chip.Planes = 2
			cfg.LockBatch = ftl.LockBatchConfig{Enabled: true}
		}
	})
}

// runSecureDeleteCampaign drives the secured-page property: distinctive
// secret files are written, churned over, and deleted; immediately after
// every deletion a raw dump of all chips must contain no byte of the
// deleted content, whatever recovery paths the injected faults forced.
func runSecureDeleteCampaign(t testing.TB, rate float64, seed int64, churn int, batched bool, tr trace.Collector) *core.Device {
	t.Helper()
	dev := faultDevice(t, rate, seed, batched, tr)
	page := dev.PageBytes()
	// On the batched device the secret spans 24 pages: the 2-plane
	// striper then fills whole wordlines, so the delete exercises the
	// batched SBPI pulse (and its failure ladder) rather than degrading
	// to single-page groups.
	span := 3
	if batched {
		span = 24
	}
	for round := 0; round < 4; round++ {
		name := fmt.Sprintf("secret-%d.db", round)
		needle := []byte(fmt.Sprintf("TOP-SECRET-%d-%d-%g", seed, round, rate))
		payload := make([]byte, span*page)
		for i := 0; i+len(needle) <= len(payload); i += len(needle) {
			copy(payload[i:], needle)
		}
		if err := dev.WriteFile(name, payload, core.Secure); err != nil {
			t.Fatal(err)
		}
		if err := dev.Churn(churn, seed+int64(round)); err != nil {
			t.Fatal(err)
		}
		// Read back through the ECC path: injected bit errors must be
		// absorbed (corrected, or retried on an uncorrectable draw) without
		// corrupting the host's view of live data.
		got, err := coretest.ReadFile(dev, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, payload) {
			t.Fatalf("rate=%g seed=%d round=%d: live secret corrupted by fault campaign", rate, seed, round)
		}
		if err := dev.DeleteFile(name); err != nil {
			t.Fatal(err)
		}
		// The attacker dumps every chip right now — mid-campaign, with
		// whatever recovery the ladder just performed.
		if hits := dev.ForensicScan(needle); len(hits) != 0 {
			t.Fatalf("rate=%g seed=%d round=%d: deleted secret recoverable at %+v",
				rate, seed, round, hits[0])
		}
	}
	if err := coretest.VerifySanitization(dev); err != nil {
		t.Fatalf("rate=%g seed=%d: %v", rate, seed, err)
	}
	return dev
}

// TestSecureDeleteUnderFaultSweep is the deterministic property sweep:
// the CI fault-rate matrix crossed with a few schedules.
func TestSecureDeleteUnderFaultSweep(t *testing.T) {
	for _, rate := range []float64{0, 1e-3, 1e-2} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rate=%g/seed=%d", rate, seed), func(t *testing.T) {
				dev := runSecureDeleteCampaign(t, rate, seed, 400, false, nil)
				if rate >= 1e-2 {
					if fc := dev.SSD().FaultCounts(); fc.ProgramFails == 0 {
						t.Fatalf("rate=%g injected no program failures", rate)
					}
				}
			})
		}
	}
}

// FuzzFaultSchedule lets the fuzzer search the fault-schedule space for a
// campaign that breaks the secured-page invariant. The rate byte indexes
// a ladder of injection intensities up to 5% per op — beyond anything a
// plausible device would see — and the seed picks the schedule.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint8(0), int64(1))
	f.Add(uint8(1), int64(7))
	f.Add(uint8(2), int64(42))
	f.Add(uint8(3), int64(1234))
	f.Add(uint8(4), int64(-99))
	f.Fuzz(func(t *testing.T, rateIdx uint8, seed int64) {
		rates := []float64{0, 1e-3, 5e-3, 1e-2, 5e-2}
		runSecureDeleteCampaign(t, rates[int(rateIdx)%len(rates)], seed, 150, rateIdx%2 == 0, nil)
	})
}

// TestAllPoliciesSurviveFaultChurn drives every §7 configuration — not
// just Evanesco — through a faulted secure-delete churn. The baseline
// policies take different recovery paths (erSSD erases during Flush,
// scrSSD scrubs wordlines in place), each with its own reentrancy
// windows when a relocation-triggered GC flush runs mid-ladder; this
// campaign is what catches a double-freed or live-holding block there.
func TestAllPoliciesSurviveFaultChurn(t *testing.T) {
	policies := []core.PolicyName{
		core.PolicyBaseline, core.PolicyErase, core.PolicyScrub,
		core.PolicySecNoBLock, core.PolicyEvanesco,
	}
	for _, pol := range policies {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				dev := compactDevice(t, pol, seed, func(cfg *ssd.Config) {
					cfg.Chip.Blocks, cfg.Chip.WLsPerBlock = 16, 8
					cfg.Fault = fault.Uniform(5e-3, seed)
				})
				// A warmed-up device keeps GC running, which is what opens
				// the reentrant-flush windows in the baseline policies.
				if err := dev.Churn(2000, seed+100); err != nil {
					t.Fatal(err)
				}
				page := dev.PageBytes()
				needle := []byte(fmt.Sprintf("POLICY-SECRET-%s-%d", pol, seed))
				payload := make([]byte, 2*page)
				for i := 0; i+len(needle) <= len(payload); i += len(needle) {
					copy(payload[i:], needle)
				}
				if err := dev.WriteFile("secret.db", payload, core.Secure); err != nil {
					t.Fatal(err)
				}
				if err := dev.Churn(1000, seed); err != nil {
					t.Fatal(err)
				}
				if err := dev.DeleteFile("secret.db"); err != nil {
					t.Fatal(err)
				}
				if pol == core.PolicyBaseline {
					return // baseline makes no sanitization promise
				}
				if hits := dev.ForensicScan(needle); len(hits) != 0 {
					t.Fatalf("%s: deleted secret recoverable at %+v", pol, hits[0])
				}
			})
		}
	}
}

// faultArtifact is the JSON blob the CI reliability job uploads: the
// injected-fault census against the recovery ladder's own books, plus
// the sanitization audit (ledger counters and verifier report).
type faultArtifact struct {
	FaultRate   float64            `json:"fault_rate"`
	FaultSeed   int64              `json:"fault_seed"`
	Injected    fault.Counts       `json:"injected"`
	Stats       ftl.Stats          `json:"ftl_stats"`
	ReadRetries uint64             `json:"read_retries"`
	ReadFails   uint64             `json:"read_failures"`
	Audit       audit.Stats        `json:"audit"`
	Verify      audit.VerifyReport `json:"audit_verify"`
}

// TestFaultCampaign runs the CI campaign at the rate selected by
// SECSSD_FAULT_RATE (default 0), cross-checks every injected failure
// against its recovery action, and — when SECSSD_FAULT_ARTIFACT names a
// path — writes the counter census there for the job's artifact upload.
func TestFaultCampaign(t *testing.T) {
	rate := 0.0
	if v := os.Getenv("SECSSD_FAULT_RATE"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("SECSSD_FAULT_RATE=%q: %v", v, err)
		}
		rate = parsed
	}
	const seed = 41
	rec := trace.NewRecorder(trace.RecorderConfig{Chips: 4, Channels: 2})
	dev := runSecureDeleteCampaign(t, rate, seed, 800, false, rec)

	st := dev.SSD().FTL().Stats()
	fc := dev.SSD().FaultCounts()
	// The audit gate: after the campaign, no secured copy may remain
	// invalidated but undestroyed, and every closed window's phases must
	// sum to its span.
	dev.Sync()
	verify := rec.AuditLedger().Verify(rec.Horizon())
	if !verify.Clean() {
		t.Errorf("audit verifier: %v", verify.Err())
	}
	aud := rec.AuditLedger().Stats(rec.Horizon())
	if phaseSum(aud.Phases) != aud.WindowSumUs {
		t.Errorf("phase sum %d != window sum %d", phaseSum(aud.Phases), aud.WindowSumUs)
	}
	if rate == 0 && fc != (fault.Counts{}) {
		t.Fatalf("rate 0 injected faults: %+v", fc)
	}
	// Every injected failure must be matched by its rung of the ladder.
	if st.ProgramFailures != fc.ProgramFails {
		t.Errorf("FTL recovered %d program failures, injector produced %d",
			st.ProgramFailures, fc.ProgramFails)
	}
	if st.LockEscalations != st.PLockFailures {
		t.Errorf("LockEscalations %d != PLockFailures %d", st.LockEscalations, st.PLockFailures)
	}
	if st.RecoveryErases != st.BLockFailures {
		t.Errorf("RecoveryErases %d != BLockFailures %d", st.RecoveryErases, st.BLockFailures)
	}
	if st.RetiredBlocks != st.EraseFailures {
		t.Errorf("RetiredBlocks %d != EraseFailures %d", st.RetiredBlocks, st.EraseFailures)
	}

	if path := os.Getenv("SECSSD_FAULT_ARTIFACT"); path != "" {
		rep := dev.SSD().Report()
		blob, err := json.MarshalIndent(faultArtifact{
			FaultRate:   rate,
			FaultSeed:   seed,
			Injected:    fc,
			Stats:       st,
			ReadRetries: rep.ReadRetries,
			ReadFails:   rep.ReadFailures,
			Audit:       aud,
			Verify:      verify,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultSweepAuditLedger crosses the CI fault-rate matrix with the
// audit ledger: every campaign — with and without pLock batching — must
// end with zero live unlocked secured copies (checked after a FlushLocks
// barrier drains any deferred batch), the phase sums must equal the
// window sums, and when the injector forced lock failures the recovery
// ladder must be visible as ladder-phase time in the closed windows.
func TestFaultSweepAuditLedger(t *testing.T) {
	for _, batched := range []bool{false, true} {
		for _, rate := range []float64{0, 1e-3, 1e-2} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("batched=%v/rate=%g/seed=%d", batched, rate, seed), func(t *testing.T) {
					rec := trace.NewRecorder(trace.RecorderConfig{Chips: 4, Channels: 2})
					dev := runSecureDeleteCampaign(t, rate, seed, 400, batched, rec)
					dev.Sync() // drain deferred lock batches before auditing
					verify := rec.AuditLedger().Verify(rec.Horizon())
					if !verify.Clean() {
						t.Fatalf("audit verifier: %v\nopen copies: %+v", verify.Err(), verify.Open)
					}
					if verify.PhaseSumErrors != 0 {
						t.Fatalf("%d windows whose phases do not sum to their span", verify.PhaseSumErrors)
					}
					aud := rec.AuditLedger().Stats(rec.Horizon())
					if phaseSum(aud.Phases) != aud.WindowSumUs {
						t.Fatalf("phase sum %d != window sum %d", phaseSum(aud.Phases), aud.WindowSumUs)
					}
					if aud.Windows == 0 {
						t.Fatal("campaign closed no windows")
					}
					// Every injected pLock/bLock failure walked the recovery
					// ladder; if any ladder rung destroyed a secured copy, the
					// window that copy belonged to must carry ladder time.
					st := dev.SSD().FTL().Stats()
					if lockFails := st.PLockFailures + st.PLockBatchFailures + st.BLockFailures; lockFails > 0 {
						if aud.LadderDestroys == 0 {
							t.Errorf("%d lock failures but no ladder-destroyed secured copies", lockFails)
						}
						if aud.LadderWindows == 0 || aud.Phases.Ladder == 0 {
							t.Errorf("lock failures left no ladder-phase time: %+v", aud)
						}
					}
					if rate == 0 && aud.LadderDestroys != 0 {
						t.Errorf("fault-free run attributed %d destroys to the ladder", aud.LadderDestroys)
					}
				})
			}
		}
	}
}

// TestSecureDeleteUnderFaultSweepBatched repeats the fault sweep on the
// amortized device (2 planes, wordline-batched pLocks): the security
// property must hold through batched-pulse failures, and the injector's
// pLock-failure census must match the lock manager's two failure
// counters exactly (each failed batched pulse is ONE chip-level draw,
// then per-page retries draw again).
func TestSecureDeleteUnderFaultSweepBatched(t *testing.T) {
	for _, rate := range []float64{0, 1e-3, 1e-2} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rate=%g/seed=%d", rate, seed), func(t *testing.T) {
				dev := runSecureDeleteCampaign(t, rate, seed, 400, true, nil)
				st := dev.SSD().FTL().Stats()
				fc := dev.SSD().FaultCounts()
				if fc.PLockFails != st.PLockFailures+st.PLockBatchFailures {
					t.Errorf("injected pLock failures %d != per-page %d + batched %d",
						fc.PLockFails, st.PLockFailures, st.PLockBatchFailures)
				}
				if st.LockEscalations != st.PLockFailures {
					t.Errorf("LockEscalations %d != PLockFailures %d",
						st.LockEscalations, st.PLockFailures)
				}
				if st.PLockBatches == 0 {
					t.Error("batched campaign issued no batched pulses")
				}
				if rate >= 1e-2 && fc.ProgramFails == 0 {
					t.Fatalf("rate=%g injected no program failures", rate)
				}
			})
		}
	}
}
