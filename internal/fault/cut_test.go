package fault

import "testing"

func TestCutStateStrikesOnceAtCount(t *testing.T) {
	cs := NewCutState()
	cs.Arm(CutSpec{AfterOps: 3})
	if cs.Strike(CutProgram) || cs.Strike(CutErase) {
		t.Fatal("struck before the scheduled op")
	}
	if !cs.Strike(CutPLock) {
		t.Fatal("third op did not strike")
	}
	if !cs.struck || cs.Armed() {
		t.Fatalf("struck=%v armed=%v", cs.struck, cs.Armed())
	}
	for i := 0; i < 10; i++ {
		if cs.Strike(CutProgram) {
			t.Fatal("spent schedule struck again")
		}
	}
}

func TestCutStateOpFilter(t *testing.T) {
	cs := NewCutState()
	cs.Arm(CutSpec{AfterOps: 2, Op: CutErase})
	// Non-matching ops neither strike nor advance the count.
	for i := 0; i < 5; i++ {
		if cs.Strike(CutProgram) {
			t.Fatal("program struck an erase-only schedule")
		}
	}
	if cs.Strike(CutErase) {
		t.Fatal("first erase struck a schedule armed for the second")
	}
	if !cs.Strike(CutErase) {
		t.Fatal("second erase did not strike")
	}
}

func TestCutStateRearmResets(t *testing.T) {
	cs := NewCutState()
	cs.Arm(CutSpec{AfterOps: 1})
	if !cs.Strike(CutProgram) {
		t.Fatal("no strike")
	}
	cs.Arm(CutSpec{AfterOps: 2})
	if cs.struck {
		t.Fatal("re-arm did not clear struck")
	}
	if cs.Strike(CutProgram) {
		t.Fatal("count not reset by re-arm")
	}
	if !cs.Strike(CutProgram) {
		t.Fatal("re-armed schedule never struck")
	}
}

func TestCutStateDisarmedAndNilSafe(t *testing.T) {
	cs := NewCutState()
	if cs.Armed() || cs.Strike(CutProgram) {
		t.Fatal("unarmed state is live")
	}
	var nilCS *CutState
	if nilCS.Armed() || nilCS.Strike(CutAny) {
		t.Fatal("nil CutState not inert")
	}
}

func TestCutStateRandDeterministicStream(t *testing.T) {
	a, b := NewCutState(), NewCutState()
	for i := 0; i < 8; i++ {
		if a.Rand() != b.Rand() {
			t.Fatal("two fresh cut states diverge")
		}
	}
	if a.Rand() == a.Rand() {
		t.Fatal("stream is constant")
	}
}

func TestCutOpStrings(t *testing.T) {
	for _, op := range []CutOp{CutAny, CutProgram, CutErase, CutPLock, CutPLockBatch, CutBLock, CutScrub} {
		if op.String() == "" {
			t.Fatalf("CutOp %d has no name", op)
		}
	}
}
