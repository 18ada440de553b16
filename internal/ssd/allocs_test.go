package ssd

import (
	"testing"

	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/sanitize"
	"repro/internal/trace"
)

// TestSanitizeCopiesDoNotAllocate is the zero-alloc canary of the
// relocation path, taken end to end through Submit: a secured
// single-page overwrite costs scrSSD two sibling copies and a scrub and
// erSSD the evacuation of a whole block plus its erase, and none of that
// — relocatePage, the copyback, the address arithmetic under both — may
// allocate. Nor does the request-level hand-off of the stale page to the
// policy: the block's pending list and DrainPending's result come from
// the free lists ReleasePending refills, and scrSSD's per-flush wordline
// dedupe list stays on the stack.
func TestSanitizeCopiesDoNotAllocate(t *testing.T) {
	cases := []struct {
		policy    func() ftl.Policy
		maxAllocs float64
		minCopies uint64 // per overwrite
	}{
		{sanitize.ScrSSD, 0, 2},
		{sanitize.ErSSD, 0, 40},
	}
	for _, c := range cases {
		t.Run(c.policy().Name(), func(t *testing.T) {
			s, err := New(goldenCell{policy: c.policy, planes: 1}.config())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.prefill(0.75, true); err != nil {
				t.Fatal(err)
			}
			const runs = 100
			lpa := int64(0)
			before := s.FTL().Stats()
			allocs := testing.AllocsPerRun(runs, func() {
				s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
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

// TestRecorderAllocsPerRun is the steady-state allocation canary of the
// traced path. A Recorder keeps no event in memory: without a spill it
// counts events, with one it packs them into a reused buffer written to
// the spill. Gauges go to stores capped at a fixed size, and each op
// class's latencies keep one count per distinct duration. What a
// Recorder retains per event is the ledger's secrets and window samples,
// each appended to a metrics.Log, so against the same overwrites on an
// untraced device a traced one may allocate only chunk refills: one
// allocation per metrics.LogChunk retained records, plus a part-filled
// chunk and the chunk-list regrowths of each log.
func TestRecorderAllocsPerRun(t *testing.T) {
	const overwrites = 4000
	// batch returns the allocations of one batch of secured single-page
	// overwrites in steady state and what the recorder retained for it.
	batch := func(rec *trace.Recorder) (allocs float64, events, records uint64) {
		cfg := goldenCell{policy: sanitize.SecSSD, planes: 1}.config()
		if rec != nil {
			cfg.Trace = rec
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.prefill(0.75, true); err != nil {
			t.Fatal(err)
		}
		retained := func() (events, records uint64) {
			if rec == nil {
				return 0, 0
			}
			st := rec.AuditLedger().Stats(rec.Horizon())
			return rec.TotalEvents(), uint64(st.Secrets) + st.Windows + uint64(rec.TInsecure().N())
		}
		lpa, logical := int64(0), int64(s.LogicalPages())
		var ev0, rec0 uint64
		allocs = testing.AllocsPerRun(1, func() { // runs the batch twice; the second is measured
			ev0, rec0 = retained()
			for i := 0; i < overwrites; i++ {
				s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
				lpa = (lpa + 7) % logical
			}
		})
		ev1, rec1 := retained()
		return allocs, ev1 - ev0, rec1 - rec0
	}

	untraced, _, _ := batch(nil)
	// Part-filled chunks and chunk-list regrowths: a few per log, across
	// the ledger logs, plus a latency tally's new durations (about 20
	// measured).
	const slack = 48
	for _, spilled := range []bool{false, true} {
		rec := trace.NewRecorder(trace.RecorderConfig{Chips: 8, Channels: 2})
		if spilled {
			closeSpill, err := rec.SpillToFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer closeSpill()
		}
		allocs, events, records := batch(rec)
		if events < 5*overwrites {
			t.Fatalf("spilled=%v: %d events over %d overwrites: the traced path was not exercised", spilled, events, overwrites)
		}
		if extra, limit := allocs-untraced, float64(records/metrics.LogChunk+slack); extra > limit {
			t.Errorf("spilled=%v: %.0f allocations more than untraced for %d events (%d retained records), want at most %.0f",
				spilled, extra, events, records, limit)
		}
		if rec.Dropped() != 0 {
			t.Errorf("spilled=%v: %d events dropped", spilled, rec.Dropped())
		}
	}
}
