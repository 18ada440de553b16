package nand

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/nand/vth"
)

func faultChip(t *testing.T, cfg fault.Config) *Chip {
	t.Helper()
	c, err := New(Geometry{
		Blocks: 4, WLsPerBlock: 4, CellKind: vth.TLC,
		PageBytes: 64, EnduranceCycles: 1000,
	}, WithSeed(1), WithFaults(fault.New(cfg, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFaultProgramConsumesPage: a failed program must advance the write
// pointer (the FTL's frontier stays in sync), leave the payload's front
// half intact (the leaked prefix) and report ErrProgramFailed.
func TestFaultProgramConsumesPage(t *testing.T) {
	c := faultChip(t, fault.Config{ProgramFail: 1, Seed: 1})
	payload := bytes.Repeat([]byte{0xAB}, 64)
	_, err := c.Program(PageAddr{Block: 0, Page: 0}, payload, 0)
	if !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("Program err = %v, want ErrProgramFailed", err)
	}
	if wp := c.WritePointer(0); wp != 1 {
		t.Fatalf("write pointer %d after failed program, want 1", wp)
	}
	res, err := c.Read(PageAddr{Block: 0, Page: 0}, 0)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(res[:32], payload[:32]) {
		t.Fatal("leaked prefix of the failed program was not preserved")
	}
	if n := c.FaultCounts().ProgramFails; n != 1 {
		t.Fatalf("ProgramFails = %d, want 1", n)
	}
}

// TestFaultEraseLeavesState: a failed erase must change nothing — data,
// write pointer and P/E count all stay.
func TestFaultEraseLeavesState(t *testing.T) {
	c := faultChip(t, fault.Config{EraseFail: 1, Seed: 1})
	payload := []byte{1, 2, 3, 4}
	if _, err := c.Program(PageAddr{Block: 0, Page: 0}, payload, 0); err != nil {
		t.Fatal(err)
	}
	pe := c.PECycles(0)
	if _, err := c.Erase(0, 0); !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("Erase err = %v, want ErrEraseFailed", err)
	}
	if c.PECycles(0) != pe {
		t.Fatal("failed erase advanced the P/E counter")
	}
	if wp := c.WritePointer(0); wp != 1 {
		t.Fatalf("failed erase moved the write pointer to %d", wp)
	}
	res, err := c.Read(PageAddr{Block: 0, Page: 0}, 0)
	if err != nil || !bytes.Equal(res, payload) {
		t.Fatalf("failed erase destroyed data: %v %v", res, err)
	}
}

// TestFaultPLockLeavesReadable: a failed pLock leaves the page readable
// (the flag cells' one-shot was spent without disabling the majority) and
// a later retry on the same page draws a fresh decision.
func TestFaultPLockLeavesReadable(t *testing.T) {
	c := faultChip(t, fault.Config{PLockFail: 1, Seed: 1})
	a := PageAddr{Block: 0, Page: 0}
	if _, err := c.Program(a, []byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PLock(a, 0); !errors.Is(err, ErrPLockFailed) {
		t.Fatalf("PLock err = %v, want ErrPLockFailed", err)
	}
	locked, err := c.IsPageLocked(a, 0)
	if err != nil || locked {
		t.Fatalf("page locked after failed pLock (err %v)", err)
	}
	if _, err := c.Read(a, 0); err != nil {
		t.Fatalf("read after failed pLock: %v", err)
	}
}

// TestFaultBLockLeavesReadable mirrors the pLock case for the SSL flag.
func TestFaultBLockLeavesReadable(t *testing.T) {
	c := faultChip(t, fault.Config{BLockFail: 1, Seed: 1})
	if _, err := c.Program(PageAddr{Block: 0, Page: 0}, []byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BLock(0, 0); !errors.Is(err, ErrBLockFailed) {
		t.Fatalf("BLock err = %v, want ErrBLockFailed", err)
	}
	locked, err := c.IsBlockLocked(0, 0)
	if err != nil || locked {
		t.Fatalf("block locked after failed bLock (err %v)", err)
	}
}

// TestFaultUncorrectableRead: at an absurd injected BER every read is
// uncorrectable and the returned data is corrupted in place.
func TestFaultUncorrectableRead(t *testing.T) {
	c := faultChip(t, fault.Config{ReadBER: 0.5, Seed: 1})
	payload := bytes.Repeat([]byte{0xFF}, 64)
	if _, err := c.Program(PageAddr{Block: 0, Page: 0}, payload, 0); err != nil {
		t.Fatal(err)
	}
	res, err := c.Read(PageAddr{Block: 0, Page: 0}, 0)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("Read err = %v, want ErrUncorrectable", err)
	}
	if res == nil || bytes.Equal(res, payload) {
		t.Fatal("uncorrectable read returned pristine data")
	}
	if c.FaultCounts().ReadUncorrectable == 0 {
		t.Fatal("ReadUncorrectable not counted")
	}
}

// TestCopybackSensesLikeRead: a copyback's internal leg is Read's sense
// step without the bus. Whatever the source — programmed with a payload
// or empty, erased, pLocked, bLocked — the destination receives what Read
// returns for that source on a chip without faults (zeros when locked),
// the fault injector draws nothing even at an absurd read BER, and the
// chip counts exactly one read and one program.
func TestCopybackSensesLikeRead(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 64)
	src, dst := PageAddr{Block: 0, Page: 0}, PageAddr{Block: 1, Page: 0}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, c *Chip)
	}{
		{"programmed", func(t *testing.T, c *Chip) { mustProgram(t, c, src, payload) }},
		{"programmed empty", func(t *testing.T, c *Chip) { mustProgram(t, c, src, nil) }},
		{"erased", func(*testing.T, *Chip) {}},
		{"pLocked", func(t *testing.T, c *Chip) { mustProgram(t, c, src, payload); mustPLock(t, c, src) }},
		{"bLocked", func(t *testing.T, c *Chip) { mustProgram(t, c, src, payload); mustBLock(t, c, src.Block) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := faultChip(t, fault.Config{})
			tc.setup(t, ref)
			want, err := ref.Read(src, 0)
			if err != nil && !errors.Is(err, ErrPageLocked) && !errors.Is(err, ErrBlockLocked) {
				t.Fatalf("reference read: %v", err)
			}

			c := faultChip(t, fault.Config{ReadBER: 0.5, Seed: 1})
			tc.setup(t, c)
			counts := c.FaultCounts()
			if _, err := c.Copyback(src, dst, 0); err != nil {
				t.Fatalf("copyback: %v", err)
			}
			if got := c.blocks[dst.Block].payload(dst.Page); !bytes.Equal(got, want) {
				t.Fatalf("destination holds %x, Read of the source returns %x", got, want)
			}
			if got := c.FaultCounts(); got != counts {
				t.Fatalf("copyback drew faults: %+v, was %+v", got, counts)
			}
			if wp := c.WritePointer(dst.Block); wp != dst.Page+1 {
				t.Fatalf("copyback left the destination's write pointer at %d, want %d", wp, dst.Page+1)
			}
		})
	}
}

// TestFaultChipDeterminism: two identically-seeded chips driven through
// the same op sequence inject identical fault schedules.
func TestFaultChipDeterminism(t *testing.T) {
	run := func() ([]error, fault.Counts) {
		c := faultChip(t, fault.Config{
			ProgramFail: 0.3, EraseFail: 0.3, PLockFail: 0.3, BLockFail: 0.3, Seed: 77,
		})
		var errs []error
		for round := 0; round < 10; round++ {
			for p := 0; p < 12; p++ {
				_, err := c.Program(PageAddr{Block: 0, Page: p}, []byte{byte(p)}, 0)
				errs = append(errs, err)
			}
			_, err := c.PLock(PageAddr{Block: 0, Page: 0}, 0)
			errs = append(errs, err)
			_, err = c.BLock(0, 0)
			errs = append(errs, err)
			// Erase until it succeeds so the next round can program again.
			for {
				_, err = c.Erase(0, 0)
				errs = append(errs, err)
				if err == nil {
					break
				}
			}
		}
		return errs, c.FaultCounts()
	}
	e1, c1 := run()
	e2, c2 := run()
	if len(e1) != len(e2) {
		t.Fatalf("op counts diverged: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("op %d fault decision diverged", i)
		}
	}
	if c1 != c2 {
		t.Fatalf("counts diverged: %+v vs %+v", c1, c2)
	}
	if c1 == (fault.Counts{}) {
		t.Fatal("no faults injected at rate 0.3")
	}
}
