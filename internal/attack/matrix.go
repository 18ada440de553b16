package attack

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/sanitize"
)

// DefaultCells builds the standard attack matrix: every policy against
// the raw dump (with and without background fault injection), the
// retention-aided read at one- and five-year bakes (the paper's lock
// durability horizon), and two power-cut instants — one early in the
// delete's sanitize burst, one late.
func DefaultCells(seed int64) []Config {
	var cells []Config
	for _, policy := range sanitize.Policies() {
		p := policy.Name()
		cells = append(cells,
			Config{Policy: p, Scenario: ScenarioDump, Seed: seed},
			Config{Policy: p, Scenario: ScenarioDump, FaultRate: 1e-3, Seed: seed},
			Config{Policy: p, Scenario: ScenarioRetention, BakeDays: 365, Seed: seed},
			Config{Policy: p, Scenario: ScenarioRetention, BakeDays: 5 * 365, Seed: seed},
			Config{Policy: p, Scenario: ScenarioPowerCut, CutAfterOps: 3, Seed: seed},
			Config{Policy: p, Scenario: ScenarioPowerCut, CutAfterOps: 20, Seed: seed},
		)
	}
	return cells
}

// Matrix runs the cells on workers goroutines. Cells are independent
// seeded simulations, so the result is identical for any worker count.
func Matrix(cells []Config, workers int) ([]Score, error) {
	return parallel.Map(workers, len(cells), func(i int) (Score, error) {
		s, err := Run(cells[i])
		if err != nil {
			return Score{}, fmt.Errorf("attack %s: %w", cells[i].Label(), err)
		}
		return s, nil
	})
}

// Verdict is the gate decision over a matrix of scores.
type Verdict struct {
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
	// ControlLeaks counts baseline cells that leaked — the proof the
	// attack works. Zero control leaks fails the gate too: a harness
	// that cannot break the baseline proves nothing about the rest.
	ControlLeaks int `json:"control_leaks"`
	Cells        int `json:"cells"`
}

// Verify encodes the CI gate:
//
//   - every sanitizing policy (everything but baseline) must report zero
//     recoverable secured bytes, a clean audit ledger with zero open
//     T_insecure windows, and intact live data — in every scenario,
//     including after a power cut and remount;
//   - the baseline control must leak in every cell it appears in, or the
//     harness itself is broken and the green gate would be vacuous.
func Verify(scores []Score) Verdict {
	v := Verdict{Pass: true, Cells: len(scores)}
	fail := func(format string, args ...any) {
		v.Pass = false
		v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
	}
	control := sanitize.Baseline().Name()
	for _, s := range scores {
		if s.Policy == control {
			if s.Leaked() {
				v.ControlLeaks++
			} else {
				fail("%s: control recovered nothing — attack harness has no teeth", s.Label)
			}
			if !s.LiveIntact {
				fail("%s: live data destroyed", s.Label)
			}
			continue
		}
		if s.Leaked() {
			fail("%s: %d recoverable secured bytes on %d pages", s.Label, s.RecoverableBytes, s.HitPages)
		}
		if s.OpenAuditCopies != 0 {
			fail("%s: %d secured copies with open T_insecure windows", s.Label, s.OpenAuditCopies)
		}
		if !s.AuditClean {
			fail("%s: audit ledger verification failed", s.Label)
		}
		if !s.LiveIntact {
			fail("%s: live data destroyed", s.Label)
		}
	}
	if v.ControlLeaks == 0 {
		fail("no baseline control cell leaked: gate cannot prove the attack works")
	}
	return v
}
