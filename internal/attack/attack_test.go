package attack

import (
	"testing"

	"repro/internal/sanitize"
)

func run(t *testing.T, cfg Config) Score {
	t.Helper()
	s, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Label(), err)
	}
	return s
}

// The baseline control must leak: deletes only flip mapping bits, so the
// raw dump recovers the secrets. Without this the gate proves nothing.
func TestBaselineControlLeaks(t *testing.T) {
	s := run(t, Config{Policy: sanitize.Baseline().Name(), Scenario: ScenarioDump, Seed: 1})
	if !s.Leaked() {
		t.Fatal("baseline dump recovered nothing; the attack harness is broken")
	}
	if !s.LiveIntact {
		t.Fatal("live file destroyed")
	}
	if s.OpenAuditCopies == 0 {
		t.Fatal("baseline should hold open T_insecure windows after delete")
	}
}

// Every sanitizing policy must defeat the plain dump, with and without
// background fault injection, and the audit ledger must agree.
func TestSanitizersDefeatDump(t *testing.T) {
	for _, policy := range sanitize.Policies()[1:] {
		p := policy.Name()
		for _, rate := range []float64{0, 1e-3} {
			s := run(t, Config{Policy: p, Scenario: ScenarioDump, FaultRate: rate, Seed: 1})
			if s.Leaked() {
				t.Errorf("%s: %d recoverable bytes", s.Label, s.RecoverableBytes)
			}
			if s.OpenAuditCopies != 0 || !s.AuditClean {
				t.Errorf("%s: audit open=%d clean=%v", s.Label, s.OpenAuditCopies, s.AuditClean)
			}
			if !s.LiveIntact {
				t.Errorf("%s: live file destroyed", s.Label)
			}
		}
	}
}

// A power cut mid-delete, remount, and journal replay must leave nothing
// recoverable — the crash window is exactly what Evanesco's lock-before-
// ack design closes.
func TestPowerCutThenRemountDefeated(t *testing.T) {
	for _, policy := range sanitize.Policies()[1:] {
		p := policy.Name()
		for _, after := range []uint64{1, 3, 20} {
			s := run(t, Config{Policy: p, Scenario: ScenarioPowerCut, CutAfterOps: after, Seed: 1})
			if !s.Remounted {
				t.Fatalf("%s: never remounted", s.Label)
			}
			if !s.CutFired {
				t.Errorf("%s: cut never fired (delete issued <%d chip ops)", s.Label, after)
			}
			if s.Leaked() {
				t.Errorf("%s: %d recoverable bytes after remount", s.Label, s.RecoverableBytes)
			}
			if s.OpenAuditCopies != 0 || !s.AuditClean {
				t.Errorf("%s: audit open=%d clean=%v", s.Label, s.OpenAuditCopies, s.AuditClean)
			}
			if !s.LiveIntact {
				t.Errorf("%s: live file destroyed", s.Label)
			}
		}
	}
}

// Baseline across a power cut: the cut never fires (no sanitize ops to
// interrupt) but the remount-and-replay path still runs, and the secrets
// are still recoverable afterwards.
func TestBaselinePowerCutStillLeaks(t *testing.T) {
	s := run(t, Config{Policy: sanitize.Baseline().Name(), Scenario: ScenarioPowerCut, CutAfterOps: 3, Seed: 1})
	if s.CutFired {
		t.Error("baseline delete issued chip ops? cut should not fire")
	}
	if !s.Remounted {
		t.Fatal("never remounted")
	}
	if !s.Leaked() {
		t.Fatal("baseline secrets vanished across remount: election or replay is wrong")
	}
	if !s.LiveIntact {
		t.Fatal("live file destroyed")
	}
}

// Locks must hold across the paper's five-year retention horizon: baking
// the chips must not reopen the attack.
func TestRetentionBakeDefeated(t *testing.T) {
	for _, p := range []string{sanitize.SecSSDNoBLock().Name(), sanitize.SecSSD().Name()} {
		for _, days := range []float64{365, 5 * 365} {
			s := run(t, Config{Policy: p, Scenario: ScenarioRetention, BakeDays: days, Seed: 1})
			if s.Leaked() {
				t.Errorf("%s: locks decayed, %d bytes recovered", s.Label, s.RecoverableBytes)
			}
			if !s.LiveIntact {
				t.Errorf("%s: live file unreadable after bake", s.Label)
			}
		}
	}
}

// The verdict over the default matrix must pass, and must fail when a
// leak is injected into a sanitizing cell or removed from the control.
func TestVerifyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	scores, err := Matrix(DefaultCells(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	v := Verify(scores)
	if !v.Pass {
		t.Fatalf("default matrix failed the gate: %v", v.Failures)
	}
	if v.ControlLeaks == 0 {
		t.Fatal("no control leaks counted")
	}

	// Tamper: a sanitizing cell that leaks must flip the verdict.
	tampered := append([]Score(nil), scores...)
	for i := range tampered {
		if tampered[i].Policy != sanitize.Baseline().Name() {
			tampered[i].RecoverableBytes = 4096
			tampered[i].HitPages = 1
			break
		}
	}
	if Verify(tampered).Pass {
		t.Fatal("gate passed a leaking sanitizer")
	}

	// Tamper: a silent control must flip the verdict too.
	muted := append([]Score(nil), scores...)
	for i := range muted {
		if muted[i].Policy == sanitize.Baseline().Name() {
			muted[i].RecoverableBytes = 0
			muted[i].HitPages = 0
		}
	}
	if Verify(muted).Pass {
		t.Fatal("gate passed with a toothless control")
	}
}

// Worker invariance: the matrix is a pure function of its cells.
func TestMatrixWorkerInvariant(t *testing.T) {
	cells := []Config{
		{Policy: sanitize.Baseline().Name(), Scenario: ScenarioDump, Seed: 1},
		{Policy: sanitize.SecSSD().Name(), Scenario: ScenarioPowerCut, CutAfterOps: 3, Seed: 1},
	}
	a, err := Matrix(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Matrix(cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
