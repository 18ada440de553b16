package ssd

import (
	"reflect"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/sanitize"
)

// FuzzPowerCutInstant cuts power at a fuzzer-chosen instant — any op
// count, any op class, any sanitizing policy, batching on or off — and
// checks the crash-consistency contract: after remount no stale page is
// readable with data (the paper's C1/C2 conditions survive the crash),
// untouched live data is preserved, and a second remount is a no-op.
func FuzzPowerCutInstant(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), uint8(24))
	f.Add(uint8(2), uint8(3), uint8(1), uint8(48))
	f.Add(uint8(1), uint8(4), uint8(4), uint8(96))
	f.Add(uint8(7), uint8(5), uint8(2), uint8(96))
	f.Add(uint8(20), uint8(1), uint8(5), uint8(64))
	f.Add(uint8(3), uint8(2), uint8(3), uint8(30))
	// erSSD × CutProgram: a cut inside an evacuation's copyback run.
	f.Add(uint8(9), uint8(1), uint8(3), uint8(40))
	f.Fuzz(func(t *testing.T, after, opSel, mix, span uint8) {
		ops := []fault.CutOp{
			fault.CutAny, fault.CutProgram, fault.CutErase,
			fault.CutPLock, fault.CutPLockBatch, fault.CutBLock, fault.CutScrub,
		}
		policies := []ftl.Policy{sanitize.SecSSD(), sanitize.SecSSDNoBLock(), sanitize.ScrSSD(), sanitize.ErSSD()}
		cfg := smallConfig(policies[int(mix)%len(policies)])
		if mix&4 != 0 {
			cfg.LockBatch = ftl.LockBatchConfig{Enabled: true}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		writeRange(t, s, 0, 96, 0x5A)
		if err := s.ArmPowerCut(fault.CutSpec{
			AfterOps: 1 + uint64(after)%64,
			Op:       ops[int(opSel)%len(ops)],
		}); err != nil {
			t.Fatal(err)
		}
		// The crash workload: trim a fuzzer-chosen prefix, then overwrite
		// a slice of what remains, so the cut can land on host programs,
		// sanitize pulses, GC relocation, or erases. The armed op class
		// may never occur — then the device simply stays alive.
		trim := 1 + int32(span)%95
		loss, err := s.CapturePowerLoss(func() error {
			if _, err := s.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: trim}); err != nil {
				return err
			}
			n := 96 - int64(trim)
			if n > 16 {
				n = 16
			}
			_, err := s.Submit(blockio.Request{Op: blockio.OpWrite, LPA: int64(trim), Pages: int32(n),
				Data: fillPages(int(n), s.Geometry().PageBytes, 0xC3)})
			return err
		})
		if err != nil {
			t.Fatalf("workload failed before any cut: %v", err)
		}
		if (loss != nil) != s.Dead() {
			t.Fatalf("loss=%v but Dead()=%v", loss, s.Dead())
		}
		// A schedule that never fired is still counting; disarm so it
		// cannot strike the recovery scan or the post-recovery probe.
		s.cut.Arm(fault.CutSpec{})

		if err := s.Remount(0); err != nil {
			t.Fatalf("remount after cut at %+v: %v", loss, err)
		}
		if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
			t.Fatalf("stale physical pages %v readable with data after remount", stale)
		}
		first := snapshot(t, s)
		if err := s.Remount(0); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, snapshot(t, s)) {
			t.Fatalf("remount not idempotent after cut at %+v", loss)
		}
		// The device must be serviceable after recovery: a fresh write
		// and read-back on a surviving LPA.
		data := fillPages(1, s.Geometry().PageBytes, 0x77)
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 95, Pages: 1, Data: data})
		got, err := s.ReadLogical(95)
		if err != nil {
			t.Fatalf("post-recovery write unreadable: %v", err)
		}
		for i := range got {
			if got[i] != data[i] {
				t.Fatal("post-recovery write corrupted")
			}
		}
	})
}
