package nand

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/nand/vth"
	"repro/internal/sim"
)

// senseAndProgram is one copyback by its two steps, the sense of src and
// the program of what it returned, with no step skipped.
func senseAndProgram(c *Chip, src, dst PageAddr, now sim.Micros, spare []blockio.Stamp) (sim.Micros, error) {
	if err := c.checkAddr(src); err != nil {
		return 0, err
	}
	if err := c.checkAddr(dst); err != nil {
		return 0, err
	}
	data, _ := c.sense(src, now)
	lat, err := c.program(dst, data, now, spare)
	if err != nil && !errors.Is(err, ErrProgramFailed) {
		return 0, err
	}
	return timing.Read + lat, err
}

// TestCopybackRunMatchesCopybacks holds CopybackRun to the copybacks it
// stands for: on two chips in the same seeded state — blocks with and
// without payloads, pLocked and bLocked sources, aged locks, and in some
// scripts a fault injector or an armed power cut — a run and the same
// copies made one at a time by their sense and program steps, stopping
// where one fails, end with the same latency, count, error, power loss,
// flag draws and media (every page's payload, stamp and lock vote, every
// block's write pointer and wear).
func TestCopybackRunMatchesCopybacks(t *testing.T) {
	geo := Geometry{Blocks: 8, WLsPerBlock: 8, CellKind: vth.TLC, PageBytes: 64, EnduranceCycles: 1000}
	ppb := geo.PagesPerBlock()
	for seed := int64(1); seed <= 60; seed++ {
		faulty, cut := seed%3 == 1, seed%5 == 2
		build := func() *Chip {
			opts := []Option{WithSeed(seed)}
			if faulty {
				opts = append(opts, WithFaults(fault.New(fault.Config{ProgramFail: 0.05, Seed: seed}, 0)))
			}
			if cut {
				cs := fault.NewCutState()
				cs.Arm(fault.CutSpec{AfterOps: 40 + uint64(seed), Op: fault.CutProgram})
				opts = append(opts, WithPowerCut(cs))
			}
			c, err := New(geo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		run, single := build(), build()
		// The same setup on both: fill blocks 0-3, half of them with
		// payloads, and lock some of their pages or whole blocks.
		rng := rand.New(rand.NewSource(seed))
		setup := func(c *Chip) {
			r := rand.New(rand.NewSource(seed))
			for b := 0; b < 4; b++ {
				for p := 0; p < ppb-r.Intn(4); p++ {
					var data []byte
					if b%2 == 1 {
						data = []byte{byte(b), byte(p), 1}
					}
					if _, err := c.Program(PageAddr{Block: b, Page: p}, data, 0); err != nil && !errors.Is(err, ErrProgramFailed) {
						t.Fatal(err)
					}
				}
				for p := 0; p < ppb; p++ {
					if r.Intn(6) == 0 {
						if _, err := c.PLock(PageAddr{Block: b, Page: p}, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				if r.Intn(4) == 0 {
					if _, err := c.BLock(b, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.AdvanceDays(float64(r.Intn(3000)))
		}
		if catchLoss(func() { setup(run) }) != nil || catchLoss(func() { setup(single) }) != nil {
			continue // the cut struck the setup: nothing left to compare
		}
		src := rng.Intn(4)
		var pages []int
		for p := 0; p < ppb; p++ {
			if rng.Intn(3) != 0 {
				pages = append(pages, p)
			}
		}
		dst := PageAddr{Block: 4 + rng.Intn(4)}
		dst.Page = rng.Intn(ppb - len(pages) + 1)
		for p := 0; p < dst.Page; p++ {
			for _, c := range []*Chip{run, single} {
				if _, err := c.Program(PageAddr{Block: dst.Block, Page: p}, nil, 0); err != nil && !errors.Is(err, ErrProgramFailed) {
					t.Fatal(err)
				}
			}
		}
		var spare []blockio.Stamp
		if rng.Intn(2) == 0 {
			for i := range pages {
				spare = append(spare, blockio.Stamp{LPA: int64(100 + i), Seq: uint64(7 + i), Secure: i%2 == 0})
			}
		}
		now := sim.Micros(rng.Intn(1e6))

		var runLat sim.Micros
		var runN int
		var runErr error
		runLoss := catchLoss(func() { runLat, runN, runErr = run.CopybackRun(src, pages, dst, now, spare) })
		var lat sim.Micros
		var n int
		var err error
		loss := catchLoss(func() {
			for i, pg := range pages {
				var l sim.Micros
				l, err = senseAndProgram(single, PageAddr{Block: src, Page: pg}, PageAddr{Block: dst.Block, Page: dst.Page + i}, now, spare[min(i, len(spare)):min(i+1, len(spare))])
				lat += l
				if err != nil {
					return
				}
				n++
			}
		})
		if (runLoss == nil) != (loss == nil) || runLoss != nil && *runLoss != *loss {
			t.Fatalf("seed %d: power loss %v in a run, %v one copy at a time", seed, runLoss, loss)
		}
		if runLoss == nil && (runLat != lat || runN != n || !errors.Is(runErr, err) || (runErr == nil) != (err == nil)) {
			t.Fatalf("seed %d: run (%v, %d, %v), copies (%v, %d, %v)", seed, runLat, runN, runErr, lat, n, err)
		}
		if run.flagsDrawn != single.flagsDrawn {
			t.Fatalf("seed %d: %d flags drawn by a run, %d one copy at a time", seed, run.flagsDrawn, single.flagsDrawn)
		}
		a, b := &mediaHash{h: sha256.New()}, &mediaHash{h: sha256.New()}
		a.chip(t, run, now)
		b.chip(t, single, now)
		if string(a.h.Sum(nil)) != string(b.h.Sum(nil)) {
			t.Fatalf("seed %d (faults %v, cut %v): media differ after a run of %d pages", seed, faulty, cut, len(pages))
		}
	}
}

// A run is refused whole, before any page is touched, when one of its
// addresses is out of range — the last destination included. The
// sources carry pending pAP flags, which a sense would draw.
func TestCopybackRunRefusesBadAddresses(t *testing.T) {
	c := newTestChip(t)
	ppb := c.Geometry().PagesPerBlock()
	for pg := range 2 {
		mustProgram(t, c, PageAddr{Block: 0, Page: pg}, []byte("x"))
		mustPLock(t, c, PageAddr{Block: 0, Page: pg})
	}
	for _, tc := range []struct {
		srcBlock int
		pages    []int
		dst      PageAddr
	}{
		{0, []int{0, ppb}, PageAddr{Block: 1}},
		{-1, []int{0}, PageAddr{Block: 1}},
		{0, []int{0, 1}, PageAddr{Block: 1, Page: ppb - 1}},
		{0, []int{0}, PageAddr{Block: c.Geometry().Blocks}},
	} {
		if _, n, err := c.CopybackRun(tc.srcBlock, tc.pages, tc.dst, 0, nil); !errors.Is(err, ErrBadAddress) || n != 0 {
			t.Errorf("run %v → %v: %d landed, err %v, want ErrBadAddress", tc.pages, tc.dst, n, err)
		}
		if c.WritePointer(1) != 0 || c.flagsDrawn != 0 {
			t.Fatalf("run %v → %v touched the chip before refusing it", tc.pages, tc.dst)
		}
	}
}
