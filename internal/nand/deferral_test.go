package nand

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/nand/vth"
	"repro/internal/sim"
)

// eagerFlags is the reference the deferred flag draws are held to: every
// flag's cells drawn from a fresh source the moment it is programmed,
// which is how the chip drew them before the draws were deferred.
type eagerFlags struct {
	c    *Chip
	rng  *rand.Rand
	live map[PageAddr]eagerFlag
	next uint64 // the next flag's program ordinal
	// Coverage: flags erased before anything drew them, and flags that
	// took a lower arena slot than a pending flag programmed before them.
	erasedPending, slotInversions int
}

type eagerFlag struct {
	ordinal     uint64
	median, day float64
}

func newEagerFlags(c *Chip, seed int64) *eagerFlags {
	return &eagerFlags{c: c, rng: rand.New(rand.NewSource(seed)), live: map[PageAddr]eagerFlag{}}
}

// lock records a flag the chip has just programmed at a.
func (e *eagerFlags) lock(a PageAddr, day float64) {
	var cells [vth.FlagCells]float64
	e.c.flagModel.SampleCells(cells[:], e.c.flagMean, e.rng)
	slot := e.c.rec(a).flag
	for b, f := range e.live {
		if e.pending(b) && e.c.rec(b).flag > slot && f.ordinal < e.next {
			e.slotInversions++
			break
		}
	}
	e.live[a] = eagerFlag{ordinal: e.next, median: medianOf(&cells), day: day}
	e.next++
}

// pending reports, without drawing, whether the flag at a still waits
// for its cells.
func (e *eagerFlags) pending(a PageAddr) bool {
	m := e.c.flagSlot(e.c.rec(a).flag).median
	return m != m
}

// erase drops a block's flags.
func (e *eagerFlags) erase(block int) {
	for a := range e.live {
		if a.Block == block {
			if e.pending(a) {
				e.erasedPending++
			}
			delete(e.live, a)
		}
	}
}

// check holds every page to the reference without drawing anything: a
// live flag that is still pending must carry its program ordinal, a
// drawn one the reference's median and day, and a page without a live
// flag must have none.
func (e *eagerFlags) check(t *testing.T, step int) {
	t.Helper()
	geo := e.c.geo
	for b := 0; b < geo.Blocks; b++ {
		for p := 0; p < geo.PagesPerBlock(); p++ {
			a := PageAddr{Block: b, Page: p}
			want, ok := e.live[a]
			rec := e.c.rec(a)
			if !ok {
				if rec.flag != 0 {
					t.Fatalf("step %d: %v holds flag slot %d, the reference has no flag there", step, a, rec.flag)
				}
				continue
			}
			if rec.flag == 0 {
				t.Fatalf("step %d: %v has no flag, the reference locked it", step, a)
			}
			f := e.c.flagSlot(rec.flag)
			if f.day != want.day {
				t.Fatalf("step %d: %v locked on day %v, reference %v", step, a, f.day, want.day)
			}
			if f.median != f.median {
				if got := ordinalOf(f.median); got != want.ordinal {
					t.Fatalf("step %d: %v pending with ordinal %d, reference %d", step, a, got, want.ordinal)
				}
			} else if f.median != want.median {
				t.Fatalf("step %d: %v (ordinal %d) drew median %v, eager reference %v", step, a, want.ordinal, f.median, want.median)
			}
		}
	}
}

// vote reads a's flag through flagVote, which draws every pending flag,
// and compares it with the reference.
func (e *eagerFlags) vote(t *testing.T, step int, a PageAddr) {
	t.Helper()
	programmed, median, day := e.c.flagVote(a)
	want, ok := e.live[a]
	if programmed != ok || ok && (median != want.median || day != want.day) {
		t.Fatalf("step %d: flagVote(%v) = %v, %v, %v; eager reference %v, %+v", step, a, programmed, median, day, ok, want)
	}
}

// anyPending reports whether a live flag that match selects is pending.
func (e *eagerFlags) anyPending(match func(PageAddr) bool) bool {
	for a := range e.live {
		if match(a) && e.pending(a) {
			return true
		}
	}
	return false
}

// drained checks, after a read that drew (draw true), that no flag is
// pending and the chip has drawn exactly the flags it programmed.
func (e *eagerFlags) drained(t *testing.T, step int, draw bool) {
	t.Helper()
	if !draw {
		return
	}
	if e.c.flagsProgrammed != e.next || e.c.flagsDrawn != e.next {
		t.Fatalf("step %d: chip programmed %d flags and drew %d, the reference programmed %d",
			step, e.c.flagsProgrammed, e.c.flagsDrawn, e.next)
	}
	for a := range e.live {
		if e.pending(a) {
			t.Fatalf("step %d: %v still pending after a draw", step, a)
		}
	}
}

// TestDeferredFlagDrawDifferential runs seeded scripts of pLocks,
// batched PLockWLs, programs and erases, with the reads that draw pending
// flags — a sense of a locked page, a ForensicDump, a ProbePage sweep —
// between them, and once rebuilds the chip on its own storage with
// NewFrom. After every step every flag must be what a chip that drew each
// flag's cells at pLock time, in program order, would hold.
func TestDeferredFlagDrawDifferential(t *testing.T) {
	geo := Geometry{Blocks: 6, WLsPerBlock: 4, CellKind: vth.TLC, PageBytes: 32, EnduranceCycles: 1000}
	ppb, bits := geo.PagesPerBlock(), geo.PagesPerWL()
	var erasedPending, inversions, senses, multiDraws int
	for seed := int64(1); seed <= 6; seed++ {
		script := rand.New(rand.NewSource(100 + seed))
		c, err := New(geo, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		e := newEagerFlags(c, seed)
		var now sim.Micros
		randLocked := func() (PageAddr, bool) {
			var locked []PageAddr // in address order, so the script is the same every run
			for b := 0; b < geo.Blocks; b++ {
				for p := 0; p < ppb; p++ {
					if _, ok := e.live[PageAddr{Block: b, Page: p}]; ok {
						locked = append(locked, PageAddr{Block: b, Page: p})
					}
				}
			}
			if len(locked) == 0 {
				return PageAddr{}, false
			}
			return locked[script.Intn(len(locked))], true
		}
		rebuilt := false
		for step := 0; step < 1500; step++ {
			now += sim.Micros(script.Intn(50_000_000))
			day := c.nowDays(now)
			pending := c.flagsProgrammed - c.flagsDrawn
			switch r := script.Intn(100); {
			case r < 25: // a single pLock, programmed page or not
				a := PageAddr{Block: script.Intn(geo.Blocks), Page: script.Intn(ppb)}
				had := c.rec(a).flag != 0
				if _, err := c.PLock(a, now); err != nil {
					t.Fatal(err)
				}
				if !had {
					e.lock(a, day)
				}
			case r < 45: // a batched pulse on a random subset of a WL's slots
				b, wl := script.Intn(geo.Blocks), script.Intn(geo.WLsPerBlock)
				slots := script.Perm(bits)[:1+script.Intn(bits)]
				var fresh []PageAddr
				for _, s := range slots {
					if a := (PageAddr{Block: b, Page: wl*bits + s}); c.rec(a).flag == 0 {
						fresh = append(fresh, a)
					}
				}
				if _, err := c.PLockWL(b, wl, slots, now); err != nil {
					t.Fatal(err)
				}
				for _, a := range fresh {
					e.lock(a, day)
				}
			case r < 60: // program the next page of a block
				b := script.Intn(geo.Blocks)
				if wp := c.WritePointer(b); wp < ppb {
					mustProgram(t, c, PageAddr{Block: b, Page: wp}, []byte{byte(step)})
				}
			case r < 72: // erase a block, pending flags and all
				b := script.Intn(geo.Blocks)
				e.erase(b)
				if _, err := c.Erase(b, now); err != nil {
					t.Fatal(err)
				}
			case r < 88: // a host read senses a locked page
				a, ok := randLocked()
				if !ok {
					continue
				}
				draw := e.pending(a)
				if _, err := c.Read(a, now); err != nil && !errors.Is(err, ErrPageLocked) {
					t.Fatal(err)
				}
				if draw {
					senses++
					if pending > 1 {
						multiDraws++
					}
				}
				e.drained(t, step, draw)
				e.vote(t, step, a)
			case r < 92: // the chip-off attacker dumps a block
				b := script.Intn(geo.Blocks)
				draw := e.anyPending(func(a PageAddr) bool { return a.Block == b })
				c.ForensicDump(b, now)
				e.drained(t, step, draw)
			case r < 96: // the remount scan probes every page
				draw := e.anyPending(func(PageAddr) bool { return true })
				for b := 0; b < geo.Blocks; b++ {
					for p := 0; p < ppb; p++ {
						if _, err := c.ProbePage(PageAddr{Block: b, Page: p}, now); err != nil {
							t.Fatal(err)
						}
					}
				}
				e.drained(t, step, draw)
			default: // a flagVote of a random locked page
				if a, ok := randLocked(); ok {
					draw := e.pending(a)
					e.vote(t, step, a)
					e.drained(t, step, draw)
				}
			}
			e.check(t, step)
			if !rebuilt && step >= 750 && c.flagsProgrammed > c.flagsDrawn {
				// Retire the chip with flags still pending and build the
				// next one on its storage: it starts a stream of its own.
				rebuilt = true
				erasedPending += e.erasedPending
				inversions += e.slotInversions
				if c, err = NewFrom(c, geo, WithSeed(seed+50)); err != nil {
					t.Fatal(err)
				}
				if c.flagsProgrammed != 0 || c.flagsDrawn != 0 {
					t.Fatalf("NewFrom kept flag counts %d/%d", c.flagsProgrammed, c.flagsDrawn)
				}
				e = newEagerFlags(c, seed+50)
			}
		}
		if !rebuilt {
			t.Fatalf("seed %d: no chip was rebuilt with flags pending", seed)
		}
		draw := e.anyPending(func(PageAddr) bool { return true })
		for a := range e.live {
			e.vote(t, -1, a)
		}
		e.drained(t, -1, draw)
		erasedPending += e.erasedPending
		inversions += e.slotInversions
	}
	t.Logf("%d flags erased while pending, %d slot inversions, %d drawing senses (%d of several flags)",
		erasedPending, inversions, senses, multiDraws)
	// The script must reach what the order matters for.
	if erasedPending == 0 || inversions == 0 || senses == 0 || multiDraws == 0 {
		t.Error("script too tame: some case the draw order matters for never came up (counts above)")
	}
}

// TestPLockDefersFlagDraws guards what makes a pLock cheap: locking
// pages, one by one and in batched pulses, among programs and erases,
// draws no flag cell until something reads a locked page's vote. The
// chip's RNG is then where a freshly seeded one starts, and the first
// read draws every flag at once.
func TestPLockDefersFlagDraws(t *testing.T) {
	const seed = 11
	geo := smallGeo()
	c, err := New(geo, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	ppb, bits := geo.PagesPerBlock(), geo.PagesPerWL()
	var locks uint64
	for b := 0; b < geo.Blocks; b++ {
		for p := 0; p < ppb; p++ {
			mustProgram(t, c, PageAddr{Block: b, Page: p}, nil)
		}
		if b%2 == 0 {
			for p := 0; p < ppb; p++ {
				mustPLock(t, c, PageAddr{Block: b, Page: p})
			}
		} else {
			for wl := 0; wl < geo.WLsPerBlock; wl++ {
				if _, err := c.PLockWL(b, wl, []int{0, 1, 2}[:bits], 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		locks += uint64(ppb)
		if b == 0 {
			if _, err := c.Erase(0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if programmed, drawn := c.flagsProgrammed, c.flagsDrawn; programmed != locks || drawn != 0 {
		t.Fatalf("%d pLocked pages: %d flags programmed, %d drawn; want %d and 0", locks, programmed, drawn, locks)
	}
	if got, want := c.rng.Int63(), rand.NewSource(seed).Int63(); got != want {
		t.Fatalf("the chip's RNG moved before any read: next value %d, a fresh source's first %d", got, want)
	}
	c.rng.Seed(seed) // undo the peek
	if _, err := c.Read(PageAddr{Block: geo.Blocks - 1, Page: 0}, 0); !errors.Is(err, ErrPageLocked) {
		t.Fatalf("read of a locked page: %v, want ErrPageLocked", err)
	}
	if drawn := c.flagsDrawn; drawn != locks {
		t.Errorf("one read of a locked page drew %d of %d flags, want all", drawn, locks)
	}
}
