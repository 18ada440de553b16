package ssd

import (
	"testing"

	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/sanitize"
)

// TestSanitizeCopiesDoNotAllocate is the zero-alloc canary of the
// relocation path, taken end to end through Submit: a secured
// single-page overwrite costs scrSSD two sibling copies and a scrub and
// erSSD the evacuation of a whole block plus its erase, and none of that
// — relocatePage, the copyback, the address arithmetic under both — may
// allocate. What does allocate is the request-level hand-off of the
// stale page to the policy, a fixed count whatever the number of copies:
// the block's pending list and DrainPending's result, plus scrSSD's
// per-flush wordline dedupe list.
func TestSanitizeCopiesDoNotAllocate(t *testing.T) {
	cases := []struct {
		policy    func() ftl.Policy
		maxAllocs float64
		minCopies uint64 // per overwrite
	}{
		{sanitize.ScrSSD, 3, 2},
		{sanitize.ErSSD, 2, 40},
	}
	for _, c := range cases {
		t.Run(c.policy().Name(), func(t *testing.T) {
			s, err := New(goldenCell{policy: c.policy, planes: 1}.config())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Prefill(0.75, true); err != nil {
				t.Fatal(err)
			}
			const runs = 100
			lpa := int64(0)
			before := s.FTL().Stats()
			allocs := testing.AllocsPerRun(runs, func() {
				s.MustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
				lpa += 7
			})
			copies := s.FTL().Stats().SanitizeCopies - before.SanitizeCopies
			if copies < c.minCopies*runs {
				t.Fatalf("%d sanitize copies over %d overwrites: the relocation path was not exercised", copies, runs)
			}
			if allocs > c.maxAllocs {
				t.Errorf("%.1f allocs per overwrite (%d page copies each), want at most %.0f",
					allocs, copies/runs, c.maxAllocs)
			}
		})
	}
}
