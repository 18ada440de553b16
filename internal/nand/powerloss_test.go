package nand

import (
	"errors"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fault"
)

func cutChip(t *testing.T, spec fault.CutSpec) (*Chip, *fault.CutState) {
	t.Helper()
	cs := fault.NewCutState()
	cs.Arm(spec)
	return newTestChip(t, WithPowerCut(cs)), cs
}

// catchLoss runs fn and returns the PowerLoss it panicked with, or nil
// when it completed. Any other panic propagates.
func catchLoss(fn func()) (pl *PowerLoss) {
	defer func() {
		if r := recover(); r != nil {
			l, ok := r.(PowerLoss)
			if !ok {
				panic(r)
			}
			pl = &l
		}
	}()
	fn()
	return nil
}

func pattern(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// A cut mid-program consumes the page and leaves a torn, stamp-less
// copy: front half intact, no OOB metadata.
func TestCutMidProgramTearsTail(t *testing.T) {
	c, cs := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutProgram})
	a := PageAddr{Block: 0, Page: 0}
	data := pattern(c.Geometry().PageBytes, 0xAA)
	pl := catchLoss(func() { mustProgram(t, c, a, data) })
	if pl == nil || pl.Op != OpProgram || pl.Addr != a {
		t.Fatalf("loss = %+v, want program cut at %v", pl, a)
	}
	if cs.Armed() {
		t.Fatal("cut state still armed after the cut")
	}
	if wp := c.WritePointer(0); wp != 1 {
		t.Fatalf("write pointer %d, want 1: the pulse consumed the page", wp)
	}
	res := mustRead(t, c, a)
	for i, b := range res[:len(data)/2] {
		if b != 0xAA {
			t.Fatalf("front half corrupted at byte %d", i)
		}
	}
	pr, err := c.ProbePage(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Stamped {
		t.Fatal("torn write carries an OOB stamp; the controller never regained control")
	}
	if !pr.Programmed || !pr.NonZero {
		t.Fatalf("probe %+v, want programmed nonzero residue", pr)
	}
	// The schedule is spent: the chip keeps working until re-armed.
	mustProgram(t, c, PageAddr{Block: 0, Page: 1}, data)
}

// A cut mid-pLock leaves the page readable (flag short of majority).
func TestCutMidPLockLeavesPageReadable(t *testing.T) {
	c, _ := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutPLock})
	a := PageAddr{Block: 0, Page: 0}
	mustProgram(t, c, a, pattern(4096, 0x5C))
	pl := catchLoss(func() { mustPLock(t, c, a) })
	if pl == nil || pl.Op != OpPLock {
		t.Fatalf("loss = %+v, want pLock cut", pl)
	}
	locked, err := c.IsPageLocked(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if locked {
		t.Fatal("interrupted pLock pulse locked the page")
	}
	if res := mustRead(t, c, a); res[0] != 0x5C {
		t.Fatal("page data lost")
	}
}

// A cut mid-batch is atomic all-or-none: every requested flag of the
// wordline is left unprogrammed, no partial subset.
func TestCutMidPLockWLAtomicNone(t *testing.T) {
	c, _ := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutPLockBatch})
	bits := c.Geometry().PagesPerWL()
	slots := make([]int, bits)
	for s := 0; s < bits; s++ {
		slots[s] = s
		mustProgram(t, c, PageAddr{Block: 0, Page: s}, pattern(4096, byte(s+1)))
	}
	pl := catchLoss(func() {
		if _, err := c.PLockWL(0, 0, slots, 0); err != nil {
			t.Errorf("PLockWL: %v", err)
		}
	})
	if pl == nil || pl.Op != OpPLockWL {
		t.Fatalf("loss = %+v, want batched pLock cut", pl)
	}
	for s := 0; s < bits; s++ {
		locked, err := c.IsPageLocked(PageAddr{Block: 0, Page: s}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if locked {
			t.Fatalf("slot %d locked: interrupted batch must program no flag at all", s)
		}
	}
}

// A cut mid-bLock leaves the SSL untouched: the block stays readable.
func TestCutMidBLockLeavesBlockReadable(t *testing.T) {
	c, _ := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutBLock})
	a := PageAddr{Block: 2, Page: 0}
	mustProgram(t, c, a, pattern(4096, 0x77))
	pl := catchLoss(func() { mustBLock(t, c, 2) })
	if pl == nil || pl.Op != OpBLock {
		t.Fatalf("loss = %+v, want bLock cut", pl)
	}
	locked, err := c.IsBlockLocked(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if locked {
		t.Fatal("interrupted SSL pulse disabled the block")
	}
	if res := mustRead(t, c, a); res[0] != 0x77 {
		t.Fatal("block data lost")
	}
}

// An interrupted erase destroys nothing: data, stamps and write pointer
// survive for the remount scan (and the attacker).
func TestCutMidEraseDestroysNothing(t *testing.T) {
	c, _ := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutErase})
	a := PageAddr{Block: 1, Page: 0}
	if _, err := c.Program(a, pattern(4096, 0x3B), 0, blockio.Stamp{LPA: 9, Seq: 4, Secure: true}); err != nil {
		t.Fatal(err)
	}
	pl := catchLoss(func() { mustErase(t, c, 1) })
	if pl == nil || pl.Op != OpErase || pl.Addr.Block != 1 {
		t.Fatalf("loss = %+v, want erase cut on block 1", pl)
	}
	if wp := c.WritePointer(1); wp != 1 {
		t.Fatalf("write pointer %d after interrupted erase, want 1", wp)
	}
	pr, err := c.ProbePage(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.NonZero || !pr.Stamped || pr.Stamp.LPA != 9 {
		t.Fatalf("probe %+v: interrupted erase must leave data and stamp intact", pr)
	}
	// Re-armed, the next erase completes once the schedule is spent.
	mustErase(t, c, 1)
	if wp := c.WritePointer(1); wp != 0 {
		t.Fatal("completed erase did not reset the block")
	}
}

// An interrupted scrub leaves the wordline's data intact.
func TestCutMidScrubLeavesWLIntact(t *testing.T) {
	c, _ := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutScrub})
	a := PageAddr{Block: 0, Page: 0}
	mustProgram(t, c, a, pattern(4096, 0x41))
	pl := catchLoss(func() { mustScrub(t, c, a) })
	if pl == nil || pl.Op != OpScrub {
		t.Fatalf("loss = %+v, want scrub cut", pl)
	}
	if res := mustRead(t, c, a); res[0] != 0x41 {
		t.Fatal("interrupted scrub destroyed the wordline")
	}
}

// The op filter skips non-matching operations; CutAny counts them all.
func TestCutSpecOpFilterAndCounting(t *testing.T) {
	c, cs := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutErase})
	data := pattern(4096, 1)
	// Programs do not match the erase-only schedule.
	mustProgram(t, c, PageAddr{Block: 0, Page: 0}, data)
	mustProgram(t, c, PageAddr{Block: 0, Page: 1}, data)
	if !cs.Armed() {
		t.Fatal("programs struck an erase-only schedule")
	}
	if pl := catchLoss(func() { mustErase(t, c, 3) }); pl == nil || pl.Op != OpErase {
		t.Fatalf("loss = %+v, want the first erase to strike", pl)
	}

	// CutAny: the third mutating op of any kind strikes.
	c2, _ := cutChip(t, fault.CutSpec{AfterOps: 3})
	mustProgram(t, c2, PageAddr{Block: 0, Page: 0}, data)
	mustProgram(t, c2, PageAddr{Block: 0, Page: 1}, data)
	pl := catchLoss(func() { mustProgram(t, c2, PageAddr{Block: 0, Page: 2}, data) })
	if pl == nil || pl.Addr.Page != 2 {
		t.Fatalf("loss = %+v, want the third op to strike", pl)
	}
}

// Stamps live and die with the page: a program lays one down, erase and
// scrub clear it.
func TestStampLifecycle(t *testing.T) {
	c := newTestChip(t)
	a := PageAddr{Block: 0, Page: 0}
	if _, err := c.Program(a, pattern(4096, 2), 0, blockio.Stamp{LPA: 5, Seq: 8, Secure: true}); err != nil {
		t.Fatal(err)
	}
	pr, err := c.ProbePage(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Stamped || pr.Stamp.LPA != 5 || pr.Stamp.Seq != 8 || !pr.Stamp.Secure {
		t.Fatalf("probe stamp %+v", pr.Stamp)
	}
	mustScrub(t, c, a)
	if pr, err = c.ProbePage(a, 0); err != nil || pr.Stamped {
		t.Fatalf("scrub left the stamp behind (probe error %v)", err)
	}
	mustErase(t, c, 0)
	if _, err := c.Program(a, pattern(4096, 3), 0, blockio.Stamp{LPA: 6, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	mustErase(t, c, 0)
	mustProgram(t, c, a, pattern(4096, 4))
	if pr, err = c.ProbePage(a, 0); err != nil || pr.Stamped {
		t.Fatalf("erase left a stale stamp on the reprogrammed page (probe error %v)", err)
	}
}

// The stamp rides the program command: Program, Copyback and
// ProgramMulti land the spare-area stamp they are given with a successful
// program, and a failed or power-cut program lands none.
func TestProgramCommandsStampOnlyOnSuccess(t *testing.T) {
	// stamp is a probe's stamp and whether the page carries it.
	type stamp struct {
		blockio.Stamp
		Valid bool
	}
	meta := func(c *Chip, a PageAddr) stamp {
		t.Helper()
		pr, err := c.ProbePage(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stamp{pr.Stamp, pr.Stamped}
	}
	m := blockio.Stamp{LPA: 7, Seq: 3, Secure: true}
	want := stamp{m, true}

	c := newTestChip(t)
	src, dst := PageAddr{Block: 0, Page: 0}, PageAddr{Block: 1, Page: 0}
	if _, err := c.Program(src, pattern(4096, 1), 0, m); err != nil || meta(c, src) != want {
		t.Fatalf("Program: err %v, stamp %+v, want %+v", err, meta(c, src), want)
	}
	want.Seq, m.Seq = 4, 4
	if _, err := c.Copyback(src, dst, 0, m); err != nil || meta(c, dst) != want {
		t.Fatalf("Copyback: err %v, stamp %+v, want %+v", err, meta(c, dst), want)
	}

	failing := faultChip(t, fault.Config{ProgramFail: 1, Seed: 1})
	if _, err := failing.Program(src, []byte{1}, 0, m); !errors.Is(err, ErrProgramFailed) || meta(failing, src).Valid {
		t.Fatalf("failed Program: err %v, stamp %+v", err, meta(failing, src))
	}
	if _, err := failing.Copyback(src, dst, 0, m); !errors.Is(err, ErrProgramFailed) || meta(failing, dst).Valid {
		t.Fatalf("failed Copyback: err %v, stamp %+v", err, meta(failing, dst))
	}

	cut, _ := cutChip(t, fault.CutSpec{AfterOps: 1, Op: fault.CutProgram})
	if pl := catchLoss(func() {
		if _, err := cut.Program(src, []byte{1}, 0, m); err != nil {
			t.Errorf("cut Program: %v", err)
		}
	}); pl == nil || meta(cut, src).Valid {
		t.Fatalf("cut Program: loss %v, stamp %+v", pl, meta(cut, src))
	}

	// A group stamps a stripe of consecutive LPAs; a page that fails
	// (here out of order) takes no stamp and no sequence number.
	pc := newPlaneChip(t)
	mustProgram(t, pc, PageAddr{Block: 1, Page: 0}, []byte("a"))
	addrs := []PageAddr{{Block: 0, Page: 0}, {Block: 1, Page: 2}, {Block: 2, Page: 0}, {Block: 3, Page: 0}}
	_, errs, err := pc.ProgramMulti(addrs[:2], [][]byte{{1}, {2}}, 0, blockio.Stamp{LPA: 10, Seq: 20})
	if err != nil || errs[0] != nil || !errors.Is(errs[1], ErrOutOfOrder) {
		t.Fatalf("ProgramMulti: err %v, page errs %v", err, errs)
	}
	if _, errs, err = pc.ProgramMulti(addrs[2:], [][]byte{{3}, {4}}, 0, blockio.Stamp{LPA: 12, Seq: 21}); err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("ProgramMulti: err %v, page errs %v", err, errs)
	}
	for i, w := range []stamp{{blockio.Stamp{LPA: 10, Seq: 20}, true}, {}, {blockio.Stamp{LPA: 12, Seq: 21}, true}, {blockio.Stamp{LPA: 13, Seq: 22}, true}} {
		if i != 1 && meta(pc, addrs[i]) != w {
			t.Errorf("group page %v: stamp %+v, want %+v", addrs[i], meta(pc, addrs[i]), w)
		}
	}
}

// Locked pages reveal neither payload residue nor stamps to the probe.
func TestProbeHonoursLockGating(t *testing.T) {
	c := newTestChip(t)
	a := PageAddr{Block: 0, Page: 0}
	if _, err := c.Program(a, pattern(4096, 0x99), 0, blockio.Stamp{LPA: 3, Seq: 2, Secure: true}); err != nil {
		t.Fatal(err)
	}
	mustPLock(t, c, a)
	pr, err := c.ProbePage(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Locked || pr.NonZero || pr.Stamped {
		t.Fatalf("probe of locked page leaked state: %+v", pr)
	}
}
