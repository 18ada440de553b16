package ssd

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/nand"
	"repro/internal/sanitize"
)

func fillPages(n, pageBytes int, tag byte) []byte {
	out := make([]byte, n*pageBytes)
	for i := range out {
		out[i] = tag ^ byte(i)
	}
	return out
}

// writeRange writes [lpa, lpa+n) with real secured payloads.
func writeRange(t *testing.T, s *SSD, lpa int64, n int, tag byte) []byte {
	t.Helper()
	data := fillPages(n, s.Geometry().PageBytes, tag)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: int32(n), Data: data})
	return data
}

// captureLoss runs fn expecting the armed cut to fire.
func captureLoss(t *testing.T, s *SSD, fn func() error) *nand.PowerLoss {
	t.Helper()
	loss, err := s.CapturePowerLoss(fn)
	if err != nil {
		t.Fatalf("workload failed before the cut: %v", err)
	}
	if loss == nil {
		t.Fatal("armed cut never fired")
	}
	if !s.Dead() {
		t.Fatal("device alive after power loss")
	}
	return loss
}

// mediaState is the full externally observable device state: raw media
// (pointers, locks, payload hashes, stamps) plus the FTL's mapping.
type mediaState struct {
	WritePtr []int
	Locked   []bool
	Probes   []nand.PageProbe
	Sums     []uint32
	L2P      []ftl.PPA
}

func snapshot(t *testing.T, s *SSD) mediaState {
	t.Helper()
	g := s.Geometry()
	st := mediaState{L2P: make([]ftl.PPA, s.LogicalPages())}
	for lpa := range st.L2P {
		st.L2P[lpa] = s.FTL().Lookup(int64(lpa))
	}
	for block := 0; block < g.TotalBlocks(); block++ {
		chip := s.Chips()[g.ChipOfBlock(block)]
		b := g.BlockInChip(block)
		locked, err := chip.IsBlockLocked(b, s.makespan)
		if err != nil {
			t.Fatal(err)
		}
		st.WritePtr = append(st.WritePtr, chip.WritePointer(b))
		st.Locked = append(st.Locked, locked)
		for pg := 0; pg < g.PagesPerBlock; pg++ {
			pr, err := chip.ProbePage(nand.PageAddr{Block: b, Page: pg}, s.makespan)
			if err != nil {
				t.Fatal(err)
			}
			st.Probes = append(st.Probes, pr)
			var sum uint32
			if res, err := chip.Read(nand.PageAddr{Block: b, Page: pg}, s.makespan); err == nil {
				for _, by := range res {
					sum = sum*31 + uint32(by)
				}
			}
			st.Sums = append(st.Sums, sum)
		}
	}
	return st
}

// A cut mid-pLock orphans an invalidated-but-unlocked copy; the remount
// must sanitize it, and a second remount must be a pure no-op.
func TestRemountIdempotentAfterPLockCut(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	want := writeRange(t, s, 0, 48, 0x10)
	if err := s.ArmPowerCut(fault.CutSpec{}); err == nil {
		t.Fatal("disarmed spec accepted")
	}
	if err := s.ArmPowerCut(fault.CutSpec{AfterOps: 2, Op: fault.CutPLock}); err != nil {
		t.Fatal(err)
	}
	loss := captureLoss(t, s, func() error {
		_, err := s.Submit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 24,
			Data: fillPages(24, s.Geometry().PageBytes, 0x55)})
		return err
	})
	if loss.Op != nand.OpPLock {
		t.Fatalf("cut struck %v, want pLock", loss.Op)
	}
	if _, err := s.Submit(blockio.Request{Op: blockio.OpRead, LPA: 0, Pages: 1}); err != ErrPowerLost {
		t.Fatalf("dead device accepted a request: %v", err)
	}
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable with data after remount", stale)
	}
	first := snapshot(t, s)
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	second := snapshot(t, s)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second remount changed device state; remount must be idempotent")
	}
	// Data the cut never touched is still live: LPAs 24.. keep their
	// original contents (the interrupted overwrite targeted 0..23).
	pb := s.Geometry().PageBytes
	for lpa := 24; lpa < 48; lpa++ {
		got, err := s.ReadLogical(int64(lpa))
		if err != nil {
			t.Fatalf("LPA %d unreadable after remount: %v", lpa, err)
		}
		if !bytes.Equal(got, want[lpa*pb:(lpa+1)*pb]) {
			t.Fatalf("LPA %d content diverged after remount", lpa)
		}
	}
}

// A cut during a coalesced pLock batch programs no flag at all (atomic
// none); the remount scan still sees every batched page as stale and
// re-sanitizes the whole wordline.
func TestCutDuringCoalescedBatchSurvivesRemount(t *testing.T) {
	cfg := smallConfig(sanitize.SecSSD())
	cfg.LockBatch = ftl.LockBatchConfig{Enabled: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeRange(t, s, 0, 96, 0x21)
	if err := s.ArmPowerCut(fault.CutSpec{AfterOps: 1, Op: fault.CutPLockBatch}); err != nil {
		t.Fatal(err)
	}
	loss := captureLoss(t, s, func() error {
		_, err := s.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 24})
		return err
	})
	if loss.Op != nand.OpPLockWL {
		t.Fatalf("cut struck %v, want batched pLock", loss.Op)
	}
	// Atomicity on the media: no page of the struck wordline holds a
	// partial flag set — each is either still readable or untouched.
	chipIdx := -1
	for ci, chip := range s.Chips() {
		wl := loss.Addr.Page / s.Geometry().PagesPerWL
		partial := false
		for slot := 0; slot < s.Geometry().PagesPerWL; slot++ {
			a := nand.PageAddr{Block: loss.Addr.Block, Page: wl*s.Geometry().PagesPerWL + slot}
			if _, err := chip.Read(a, s.makespan); err != nil {
				partial = true
			}
		}
		if !partial {
			chipIdx = ci
		}
	}
	if chipIdx < 0 {
		t.Fatal("no chip holds the struck wordline readable")
	}
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable with data after remount", stale)
	}
}

// A cut on the bLock seal itself (SSL short of the disable threshold)
// leaves the fully-stale block readable; remount must re-seal it.
func TestCutOnBLockSealRecoveredByRemount(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	writeRange(t, s, 0, 96, 0x33)
	if err := s.ArmPowerCut(fault.CutSpec{AfterOps: 1, Op: fault.CutBLock}); err != nil {
		t.Fatal(err)
	}
	loss := captureLoss(t, s, func() error {
		_, err := s.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 96})
		return err
	})
	if loss.Op != nand.OpBLock {
		t.Fatalf("cut struck %v, want bLock", loss.Op)
	}
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable with data after remount", stale)
	}
}

// A cut mid-relocation (erSSD: live pages move out before the victim
// block is erased) leaves a torn, stamp-less destination copy. The
// remount keeps the stamped source live — no data loss — and sanitizes
// the torn residue.
func TestCutMidRelocationKeepsSourceSanitizesTorn(t *testing.T) {
	s := newSSD(t, sanitize.ErSSD())
	want := writeRange(t, s, 0, 96, 0x44)
	if err := s.ArmPowerCut(fault.CutSpec{AfterOps: 1, Op: fault.CutProgram}); err != nil {
		t.Fatal(err)
	}
	// Trimming the odd half leaves every block half-live: erSSD must
	// relocate the even LPAs before erasing, and the first relocation
	// program is struck.
	loss := captureLoss(t, s, func() error {
		for lpa := int64(1); lpa < 96; lpa += 2 {
			if _, err := s.Submit(blockio.Request{Op: blockio.OpTrim, LPA: lpa, Pages: 1}); err != nil {
				return err
			}
		}
		return nil
	})
	if loss.Op != nand.OpProgram {
		t.Fatalf("cut struck %v, want a relocation program", loss.Op)
	}
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	pb := s.Geometry().PageBytes
	for lpa := int64(0); lpa < 96; lpa += 2 {
		got, err := s.ReadLogical(lpa)
		if err != nil {
			t.Fatalf("live LPA %d lost across cut+remount: %v", lpa, err)
		}
		if !bytes.Equal(got, want[lpa*int64(pb):(lpa+1)*int64(pb)]) {
			t.Fatalf("LPA %d content diverged across cut+remount", lpa)
		}
	}
	if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable with data after remount", stale)
	}
}

// A cut mid-erase destroys nothing; the block's stale contents are still
// on the media and the remount re-runs the erase policy over them.
func TestCutMidEraseRecoveredByRemount(t *testing.T) {
	s := newSSD(t, sanitize.ErSSD())
	writeRange(t, s, 0, 96, 0x66)
	if err := s.ArmPowerCut(fault.CutSpec{AfterOps: 1, Op: fault.CutErase}); err != nil {
		t.Fatal(err)
	}
	loss := captureLoss(t, s, func() error {
		_, err := s.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 96})
		return err
	})
	if loss.Op != nand.OpErase {
		t.Fatalf("cut struck %v, want erase", loss.Op)
	}
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable with data after remount", stale)
	}
}

// Remount on a healthy, never-cut device preserves every mapping and
// all live data: the boot scan alone carries the full translation state.
func TestHealthyRemountPreservesData(t *testing.T) {
	for _, policy := range []ftl.Policy{sanitize.SecSSD(), sanitize.ScrSSD(), sanitize.ErSSD()} {
		s := newSSD(t, policy)
		want := writeRange(t, s, 0, 60, 0x77)
		s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: 50, Pages: 10})
		if err := s.Remount(0); err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		pb := s.Geometry().PageBytes
		for lpa := int64(0); lpa < 50; lpa++ {
			got, err := s.ReadLogical(lpa)
			if err != nil {
				t.Fatalf("%s: LPA %d unreadable after healthy remount: %v", policy.Name(), lpa, err)
			}
			if !bytes.Equal(got, want[lpa*int64(pb):(lpa+1)*int64(pb)]) {
				t.Fatalf("%s: LPA %d diverged after healthy remount", policy.Name(), lpa)
			}
		}
		for lpa := int64(50); lpa < 60; lpa++ {
			if s.FTL().Lookup(lpa) != ftl.NoPPA {
				t.Fatalf("%s: trimmed LPA %d resurrected by healthy remount", policy.Name(), lpa)
			}
		}
		if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
			t.Fatalf("stale physical pages %v readable with data after remount", stale)
		}
	}
}
