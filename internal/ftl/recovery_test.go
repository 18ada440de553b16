package ftl_test

import (
	"errors"
	"testing"

	"repro/internal/audit"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/trace"
)

// capture is a trace.Collector recording every op and lifecycle event,
// so tests can assert the fault-marker classes the recovery ladder emits
// and the copies, invalidations and destructions the FTL reports.
type capture struct {
	events []trace.Event
	audits [3]int // per audit.Kind
}

func (c *capture) Enabled() bool                              { return true }
func (c *capture) Op(ev trace.Event)                          { c.events = append(c.events, ev) }
func (c *capture) Gauge(trace.GaugeKind, sim.Micros, float64) {}
func (c *capture) Audit(ev audit.Event)                       { c.audits[ev.Kind]++ }

func (c *capture) count(class trace.OpClass) int {
	n := 0
	for _, ev := range c.events {
		if ev.Class == class {
			n++
		}
	}
	return n
}

// newRecoveryFTL builds an FTL over a scripted CountingTarget with real
// chips attached (so forensic dumps can verify physical destruction) and
// a capturing tracer.
func newRecoveryFTL(t *testing.T, policy ftl.Policy) (*ftl.FTL, *ftltest.CountingTarget, *capture) {
	t.Helper()
	geo := ftltest.SmallGeometry()
	tgt := ftltest.New(geo).WithChips(ftltest.BuildChips(t, geo))
	cfg := ftltest.SmallConfig()
	cap := &capture{}
	cfg.Tracer = cap
	f, err := ftl.New(cfg, tgt, policy)
	if err != nil {
		t.Fatal(err)
	}
	return f, tgt, cap
}

// blockStatuses tallies the page-status population of one block.
func blockStatuses(f *ftl.FTL, block int) [ftl.NumPageStatus]int {
	var out [ftl.NumPageStatus]int
	geo := f.Geometry()
	first := geo.FirstPPA(block)
	for i := 0; i < geo.PagesPerBlock; i++ {
		out[f.Status(first+ftl.PPA(i))]++
	}
	return out
}

// assertNoResidue checks the attacker's view: a raw dump of the block
// must contain no non-zero byte.
func assertNoResidue(t *testing.T, tgt *ftltest.CountingTarget, f *ftl.FTL, block int) {
	t.Helper()
	geo := f.Geometry()
	chip := geo.ChipOfBlock(block)
	for page, data := range tgt.Chips[chip].ForensicDump(geo.BlockInChip(block), 1<<40) {
		for i, b := range data {
			if b != 0 {
				t.Fatalf("block %d page %d byte %d readable (0x%02x) after sanitization", block, page, i, b)
			}
		}
	}
}

// TestLockEscalationLadder walks the recovery ladder one scripted rung at
// a time: a failed pLock escalates to bLock; a failed bLock falls back to
// copy-out + erase; a failed erase retires the block behind backstop
// scrubs. Each case asserts the exact counter deltas, the final page-
// status population of the afflicted block, the trace marker classes,
// and — via a raw chip dump — that no stale byte survived.
func TestLockEscalationLadder(t *testing.T) {
	type want struct {
		pLockFailures, escalations   uint64
		bLockFailures, recoveryErase uint64
		eraseFailures, retired       uint64
		backstopScrubs               uint64
		locked, isRetired            bool
		// Final page-status population of the block.
		statuses [ftl.NumPageStatus]int
		// Expected trace-marker counts.
		marks map[trace.OpClass]int
	}
	geo := ftltest.SmallGeometry()
	allOf := func(st ftl.PageStatus) (out [ftl.NumPageStatus]int) {
		out[st] = geo.PagesPerBlock
		return
	}
	wls := uint64(geo.PagesPerBlock / geo.PagesPerWL)

	cases := []struct {
		name                            string
		failPLock, failBLock, failErase bool
		want                            want
	}{
		{
			name:      "plock-fail-escalates-to-block",
			failPLock: true,
			want: want{
				pLockFailures: 1, escalations: 1,
				locked:   true,
				statuses: allOf(ftl.PageInvalid),
				marks: map[trace.OpClass]int{
					trace.OpPLockFail: 1, trace.OpBLockFail: 0,
					trace.OpEraseFail: 0, trace.OpRetire: 0,
				},
			},
		},
		{
			name:      "block-fail-falls-back-to-erase",
			failPLock: true, failBLock: true,
			want: want{
				pLockFailures: 1, escalations: 1,
				bLockFailures: 1, recoveryErase: 1,
				statuses: allOf(ftl.PageFree),
				marks: map[trace.OpClass]int{
					trace.OpPLockFail: 1, trace.OpBLockFail: 1,
					trace.OpEraseFail: 0, trace.OpRetire: 0,
				},
			},
		},
		{
			name:      "erase-fail-retires-block",
			failPLock: true, failBLock: true, failErase: true,
			want: want{
				pLockFailures: 1, escalations: 1,
				bLockFailures: 1, recoveryErase: 1,
				eraseFailures: 1, retired: 1,
				backstopScrubs: wls,
				isRetired:      true,
				statuses:       allOf(ftl.PageRetired),
				marks: map[trace.OpClass]int{
					trace.OpPLockFail: 1, trace.OpBLockFail: 1,
					trace.OpEraseFail: 1, trace.OpRetire: 1,
				},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, tgt, tr := newRecoveryFTL(t, sanitize.SecSSDNoBLock())

			// lpa 0 and 2 stripe onto the same chip and share its active
			// block; lpa 1 lands on the other chip.
			write(t, f, 0, 1, false)
			write(t, f, 1, 1, false)
			write(t, f, 2, 1, false)
			victim := f.Geometry().BlockOf(f.Lookup(0))
			if f.Geometry().BlockOf(f.Lookup(2)) != victim {
				t.Fatalf("test setup: lpa 0 and 2 not co-located")
			}

			if tc.failPLock {
				tgt.FailPLock = failOnce(func(ftl.PPA) {})
			}
			if tc.failBLock {
				tgt.FailBLock = failOnce(func(int) {})
			}
			if tc.failErase {
				tgt.FailErase = failOnce(func(int) {})
			}

			// Overwriting lpa 0 invalidates its secured copy in the victim
			// block; the request-level flush pLocks it, and the scripted
			// failures drive the ladder from there.
			write(t, f, 0, 1, false)

			s := f.Stats()
			if s.PLockFailures != tc.want.pLockFailures ||
				s.LockEscalations != tc.want.escalations ||
				s.BLockFailures != tc.want.bLockFailures ||
				s.RecoveryErases != tc.want.recoveryErase ||
				s.EraseFailures != tc.want.eraseFailures ||
				s.RetiredBlocks != tc.want.retired ||
				s.BackstopScrubs != tc.want.backstopScrubs {
				t.Fatalf("stats %+v do not match %+v", s, tc.want)
			}
			if got := f.BlockLocked(victim); got != tc.want.locked {
				t.Fatalf("BlockLocked(%d) = %v, want %v", victim, got, tc.want.locked)
			}
			if got := f.BlockRetired(victim); got != tc.want.isRetired {
				t.Fatalf("BlockRetired(%d) = %v, want %v", victim, got, tc.want.isRetired)
			}
			if got := blockStatuses(f, victim); got != tc.want.statuses {
				t.Fatalf("block %d statuses %v, want %v", victim, got, tc.want.statuses)
			}
			for class, n := range tc.want.marks {
				if got := tr.count(class); got != n {
					t.Fatalf("trace %v count = %d, want %d", class, got, n)
				}
			}
			if tc.want.isRetired {
				if got := f.RetiredPages(); got != int64(f.Geometry().PagesPerBlock) {
					t.Fatalf("RetiredPages = %d, want %d", got, f.Geometry().PagesPerBlock)
				}
			}

			// The escalation relocated lpa 2's live copy out of the block
			// before locking it, without losing the mapping.
			if b := f.Geometry().BlockOf(f.Lookup(2)); b == victim {
				t.Fatal("live page was not relocated out of the escalated block")
			}
			if st := f.Status(f.Lookup(2)); st != ftl.PageSecured {
				t.Fatalf("relocated live page status %v, want secured", st)
			}
			assertNoResidue(t, tgt, f, victim)

			// The device keeps serving writes afterwards.
			for lpa := int64(0); lpa < 8; lpa++ {
				write(t, f, lpa, 1, false)
			}
		})
	}
}

// failOnce returns a scripted hook that fails exactly the first call.
func failOnce[T any](observe func(T)) func(T) error {
	fired := false
	return func(v T) error {
		if fired {
			return nil
		}
		fired = true
		observe(v)
		return errors.New("scripted fault")
	}
}

// TestProgramFailRetriesAndQuarantines: a failed host program consumes
// its page, which must be quarantined (routed through sanitization) while
// the write retries on a fresh page — and the leaked partial payload must
// not be readable once the request completes.
func TestProgramFailRetriesAndQuarantines(t *testing.T) {
	f, tgt, tr := newRecoveryFTL(t, sanitize.SecSSDNoBLock())

	var failed ftl.PPA
	tgt.FailProgram = failOnce(func(p ftl.PPA) { failed = p })
	write(t, f, 0, 1, false)

	s := f.Stats()
	if s.ProgramFailures != 1 || s.ProgramRetries != 1 {
		t.Fatalf("ProgramFailures/Retries = %d/%d, want 1/1", s.ProgramFailures, s.ProgramRetries)
	}
	if s.FlashPrograms != 2 {
		t.Fatalf("FlashPrograms = %d, want 2 (failed + retry)", s.FlashPrograms)
	}
	if p := f.Lookup(0); p == failed || p == ftl.NoPPA {
		t.Fatalf("lpa 0 maps to %v (failed page %v)", p, failed)
	}
	if st := f.Status(f.Lookup(0)); st != ftl.PageSecured {
		t.Fatalf("retried page status %v, want secured", st)
	}
	// The quarantined page went through the policy: pLocked and invalid.
	if st := f.Status(failed); st != ftl.PageInvalid {
		t.Fatalf("quarantined page status %v, want invalid", st)
	}
	if s.PLocks != 1 {
		t.Fatalf("PLocks = %d, want 1 (quarantined page sanitized)", s.PLocks)
	}
	if tr.count(trace.OpProgramFail) != 1 {
		t.Fatalf("OpProgramFail markers = %d, want 1", tr.count(trace.OpProgramFail))
	}
	assertNoResidue(t, tgt, f, f.Geometry().BlockOf(failed))
}

// TestLockedAndRetiredBlocksSkipFurtherLocks: once a block is bLocked or
// retired, later IssuePLock/IssueBLock calls on it are no-ops (its stale
// data is already destroyed).
func TestLockedAndRetiredBlocksSkipFurtherLocks(t *testing.T) {
	f, tgt, _ := newRecoveryFTL(t, sanitize.SecSSDNoBLock())
	write(t, f, 0, 1, false)
	write(t, f, 2, 1, false)
	victim := f.Geometry().BlockOf(f.Lookup(0))
	tgt.FailPLock = failOnce(func(ftl.PPA) {})
	write(t, f, 0, 1, false) // escalates victim to a bLock
	if !f.BlockLocked(victim) {
		t.Fatal("setup: victim not locked")
	}
	before := f.Stats()
	f.IssuePLock(f.Geometry().FirstPPA(victim))
	f.IssueBLock(victim, nil)
	after := f.Stats()
	if after.PLocks != before.PLocks || after.BLocks != before.BLocks {
		t.Fatalf("locks issued on an already-locked block: %+v -> %+v", before, after)
	}
}
