package audit

import (
	"testing"
)

// sum totals the breakdown.
func (b PhaseBreakdown) sum() int64 { return b.QueueWait + b.BatchWait + b.Reopen + b.Pulse + b.Ladder }

func TestSingleCopyWindow(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindCopy, Page: 1, Src: NoSrc, LPA: 10, Origin: OriginHost, At: 0})
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 100})
	if l.OpenCopies() != 1 {
		t.Fatalf("OpenCopies = %d, want 1", l.OpenCopies())
	}
	l.Record(Event{Kind: KindDestroy, Page: 1, Cause: CausePLock, Dep: 130, At: 400})
	if l.OpenCopies() != 0 {
		t.Fatalf("OpenCopies = %d after destroy, want 0", l.OpenCopies())
	}
	st := l.Stats(400)
	if st.Windows != 1 || st.WindowSumUs != 300 {
		t.Fatalf("windows/sum = %d/%d, want 1/300", st.Windows, st.WindowSumUs)
	}
	if st.Phases.QueueWait != 30 || st.Phases.Pulse != 270 {
		t.Fatalf("phases = %+v, want queue_wait 30 pulse 270", st.Phases)
	}
	if st.Phases.sum() != st.WindowSumUs {
		t.Fatalf("phase sum %d != window sum %d", st.Phases.sum(), st.WindowSumUs)
	}
	if got := l.TInsec().Max(); got != 300 {
		t.Fatalf("per-copy T_insecure = %v, want 300", got)
	}
	if rep := l.Verify(400); !rep.Clean() || rep.Err() != nil {
		t.Fatalf("verify not clean: %+v", rep)
	}
}

func TestWindowClosesOnlyWhenEveryCopyDestroyed(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindCopy, Page: 1, Src: NoSrc, LPA: 10, Origin: OriginHost, At: 0})
	// GC relocates the live copy: page 2 now holds the same secret.
	l.Record(Event{Kind: KindCopy, Page: 2, Src: 1, LPA: 10, Origin: OriginGC, At: 50})
	// The old copy goes stale at relocation, the new one at deletion.
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 60})
	l.Record(Event{Kind: KindInvalidate, Page: 2, At: 200})
	if st := l.Stats(200); st.Secrets != 1 || st.OpenSecrets != 1 || st.ExposedCopies != 2 {
		t.Fatalf("stats = %+v, want one secret with two exposed copies", st)
	}
	// Destroying only one copy must NOT close the secret's window.
	l.Record(Event{Kind: KindDestroy, Page: 1, Cause: CausePLock, Dep: 70, At: 300})
	if st := l.Stats(300); st.Windows != 0 || st.OpenSecrets != 1 {
		t.Fatalf("window closed early: %+v", st)
	}
	l.Record(Event{Kind: KindDestroy, Page: 2, Cause: CausePLock, Dep: 210, At: 500})
	st := l.Stats(500)
	if st.Windows != 1 || st.OpenSecrets != 0 {
		t.Fatalf("stats after full destruction = %+v", st)
	}
	// Window spans first exposure (60) to last destruction (500).
	if st.WindowSumUs != 440 {
		t.Fatalf("window = %d, want 440", st.WindowSumUs)
	}
	if st.Phases.sum() != st.WindowSumUs {
		t.Fatalf("phase sum %d != window %d", st.Phases.sum(), st.WindowSumUs)
	}
	// Per-copy sample still has both individual windows (240 and 300).
	if n := l.TInsec().N(); n != 2 {
		t.Fatalf("per-copy windows = %d, want 2", n)
	}
}

func TestBatchWaitAndLadderPhases(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindCopy, Page: 1, Src: NoSrc, LPA: 1, Origin: OriginHost, At: 0})
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 100})
	l.Record(Event{Kind: KindDestroy, Page: 1, Cause: CausePLockBatch, Dep: 160, At: 200})
	st := l.Stats(200)
	if st.Phases.BatchWait != 60 || st.Phases.QueueWait != 0 {
		t.Fatalf("batched close phases = %+v, want batch_wait 60", st.Phases)
	}

	l.Record(Event{Kind: KindCopy, Page: 2, Src: NoSrc, LPA: 2, Origin: OriginHost, At: 0})
	l.Record(Event{Kind: KindInvalidate, Page: 2, At: 300})
	l.Record(Event{Kind: KindDestroy, Page: 2, Cause: CauseBLock, Dep: 320, At: 700, Ladder: true})
	st = l.Stats(700)
	// A ladder window attributes its whole span (300→700) to the ladder.
	if st.Phases.Ladder != 400 || st.LadderWindows != 1 || st.LadderDestroys != 1 {
		t.Fatalf("ladder close = %+v", st)
	}
	if st.Phases.sum() != st.WindowSumUs {
		t.Fatalf("phase sum %d != window sum %d", st.Phases.sum(), st.WindowSumUs)
	}
}

func TestLadderHitMarksWholeWindow(t *testing.T) {
	// When ANY copy of a window is destroyed by a ladder rung, the
	// window's execution slice is attributed to the ladder even if the
	// closing destruction itself succeeded on the normal path.
	l := NewLedger()
	l.Record(Event{Kind: KindCopy, Page: 1, Src: NoSrc, LPA: 1, Origin: OriginHost, At: 0})
	l.Record(Event{Kind: KindCopy, Page: 2, Src: 1, LPA: 1, Origin: OriginEvacuate, At: 10})
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 100})
	l.Record(Event{Kind: KindInvalidate, Page: 2, At: 120})
	l.Record(Event{Kind: KindDestroy, Page: 1, Cause: CauseBLock, Dep: 150, At: 300, Ladder: true})
	l.Record(Event{Kind: KindDestroy, Page: 2, Cause: CausePLock, Dep: 350, At: 400})
	st := l.Stats(400)
	if st.LadderWindows != 1 || st.Phases.Ladder == 0 || st.Phases.Pulse != 0 {
		t.Fatalf("ladder hit not sticky: %+v", st)
	}
}

func TestReopenedWindowPhase(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindCopy, Page: 1, Src: NoSrc, LPA: 5, Origin: OriginHost, At: 0})
	// GC relocates, the old copy's window opens and closes: window 1.
	l.Record(Event{Kind: KindCopy, Page: 2, Src: 1, LPA: 5, Origin: OriginGC, At: 40})
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 50})
	l.Record(Event{Kind: KindDestroy, Page: 1, Cause: CausePLock, Dep: 60, At: 100})
	// Later the relocated copy is deleted: a reopened window.
	l.Record(Event{Kind: KindInvalidate, Page: 2, At: 500})
	l.Record(Event{Kind: KindDestroy, Page: 2, Cause: CausePLock, Dep: 520, At: 600})
	st := l.Stats(600)
	if st.Windows != 2 || st.ReopenedWindows != 1 {
		t.Fatalf("windows = %d reopened = %d, want 2/1", st.Windows, st.ReopenedWindows)
	}
	// Window 2's wait slice (500→520) lands in the reopen phase.
	if st.Phases.Reopen != 20 {
		t.Fatalf("reopen phase = %d, want 20", st.Phases.Reopen)
	}
	if st.Phases.sum() != st.WindowSumUs {
		t.Fatalf("phase sum %d != window sum %d", st.Phases.sum(), st.WindowSumUs)
	}
}

func TestFirstInvalidationWinsAndNegativeClamp(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 1000})
	// Re-invalidating must not reset the window start.
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 1500})
	l.Record(Event{Kind: KindDestroy, Page: 1, Dep: 2000, At: 2000})
	if got := l.TInsec().Max(); got != 1000 {
		t.Fatalf("T_insecure = %v, want 1000 (from the FIRST invalidation)", got)
	}
	// Negative spans clamp to zero (lock completed before the GC
	// relocation recorded the invalidation).
	l.Record(Event{Kind: KindInvalidate, Page: 3, At: 900})
	l.Record(Event{Kind: KindDestroy, Page: 3, Dep: 400, At: 500})
	if got := l.TInsec().Min(); got != 0 {
		t.Fatalf("negative window = %v, want clamp to 0", got)
	}
	st := l.Stats(2000)
	if st.Phases.sum() != st.WindowSumUs {
		t.Fatalf("phase sum %d != window sum %d", st.Phases.sum(), st.WindowSumUs)
	}
}

func TestDestroyWithoutWindowIsNoop(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindDestroy, Page: 42, Dep: 10, At: 10})
	if l.TInsec().N() != 0 || l.Stats(10).CopiesDestroyed != 0 {
		t.Fatal("destroy of unknown page must be a no-op")
	}
	// Double destruction (bLock escalation then erase) counts once.
	l.Record(Event{Kind: KindInvalidate, Page: 1, At: 0})
	l.Record(Event{Kind: KindDestroy, Page: 1, Cause: CauseBLock, Dep: 5, At: 20})
	l.Record(Event{Kind: KindDestroy, Page: 1, Cause: CauseErase, Dep: 5, At: 30})
	if n := l.TInsec().N(); n != 1 {
		t.Fatalf("per-copy windows = %d, want 1", n)
	}
}

func TestVerifyReportsOpenCopies(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindCopy, Page: 9, Src: NoSrc, LPA: 77, Origin: OriginHost, At: 0})
	l.Record(Event{Kind: KindInvalidate, Page: 9, At: 250})
	rep := l.Verify(1000)
	if rep.Clean() || rep.Err() == nil {
		t.Fatal("verifier missed a live unlocked copy")
	}
	if rep.ExposedCopies != 1 || len(rep.Open) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Open[0].Page != 9 || rep.Open[0].LPA != 77 || rep.Open[0].Origin != "host" {
		t.Fatalf("open copy = %+v", rep.Open[0])
	}
	if rep.OldestOpenUs != 750 {
		t.Fatalf("oldest open age = %d, want 750", rep.OldestOpenUs)
	}
	st := l.Stats(1000)
	if st.OldestOpenUs != 750 || st.OpenSecrets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQuarantineCopyIsOwnSecret(t *testing.T) {
	l := NewLedger()
	l.Record(Event{Kind: KindCopy, Page: 4, Src: NoSrc, LPA: -1, Origin: OriginQuarantine, At: 10})
	l.Record(Event{Kind: KindInvalidate, Page: 4, At: 10})
	l.Record(Event{Kind: KindDestroy, Page: 4, Cause: CausePLock, Dep: 15, At: 40})
	st := l.Stats(40)
	if st.Secrets != 1 || st.Copies.Quarantine != 1 || st.Windows != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEnumStrings(t *testing.T) {
	if OriginGC.String() != "gc" || CausePLockBatch.String() != "plock_batch" ||
		PhaseBatchWait.String() != "batch_wait" || PhaseLadder.String() != "ladder" {
		t.Fatal("enum strings changed")
	}
}
