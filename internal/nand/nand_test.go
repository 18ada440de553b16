package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/nand/vth"
)

// smallGeo keeps tests fast: 8 blocks of 4 TLC wordlines.
func smallGeo() Geometry {
	return Geometry{
		Blocks:          8,
		WLsPerBlock:     4,
		CellKind:        vth.TLC,
		PageBytes:       4096,
		EnduranceCycles: 1000,
	}
}

func newTestChip(t *testing.T, opts ...Option) *Chip {
	t.Helper()
	c, err := New(smallGeo(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The must* helpers assert chip ops whose outcome is setup, not the
// point of the test: TestInvariants forbids discarding a chip op's
// error, because that error carries the pAP/bAP lock state.
func mustProgram(t *testing.T, c *Chip, a PageAddr, data []byte) {
	t.Helper()
	if _, err := c.Program(a, data, 0); err != nil {
		t.Fatalf("Program(%v): %v", a, err)
	}
}

func mustRead(t *testing.T, c *Chip, a PageAddr) []byte {
	t.Helper()
	res, err := c.Read(a, 0)
	if err != nil {
		t.Fatalf("Read(%v): %v", a, err)
	}
	return res
}

func mustPLock(t *testing.T, c *Chip, a PageAddr) {
	t.Helper()
	if _, err := c.PLock(a, 0); err != nil {
		t.Fatalf("PLock(%v): %v", a, err)
	}
}

func mustBLock(t *testing.T, c *Chip, blk int) {
	t.Helper()
	if _, err := c.BLock(blk, 0); err != nil {
		t.Fatalf("BLock(%d): %v", blk, err)
	}
}

func mustErase(t *testing.T, c *Chip, blk int) {
	t.Helper()
	if _, err := c.Erase(blk, 0); err != nil {
		t.Fatalf("Erase(%d): %v", blk, err)
	}
}

func mustScrub(t *testing.T, c *Chip, a PageAddr) {
	t.Helper()
	if _, err := c.Scrub(a, 0); err != nil {
		t.Fatalf("Scrub(%v): %v", a, err)
	}
}

func pageLocked(t *testing.T, c *Chip, a PageAddr) bool {
	t.Helper()
	locked, err := c.IsPageLocked(a, 0)
	if err != nil {
		t.Fatalf("IsPageLocked(%v): %v", a, err)
	}
	return locked
}

func blockLocked(t *testing.T, c *Chip, blk int) bool {
	t.Helper()
	locked, err := c.IsBlockLocked(blk, 0)
	if err != nil {
		t.Fatalf("IsBlockLocked(%d): %v", blk, err)
	}
	return locked
}

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry()
	if g.PagesPerWL() != 3 {
		t.Fatalf("TLC PagesPerWL = %d, want 3", g.PagesPerWL())
	}
	if g.PagesPerBlock() != 576 {
		t.Fatalf("PagesPerBlock = %d, want 576 (the paper's configuration)", g.PagesPerBlock())
	}
	// 428 blocks * 576 pages * 16 KiB ≈ 3.77 GiB per chip; 8 chips ≈ 30 GiB.
	if got := g.TotalPages() * g.PageBytes; got != 428*576*16*1024 {
		t.Fatalf("chip capacity %d bytes", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Geometry{
		{Blocks: 0, WLsPerBlock: 1, CellKind: vth.TLC, PageBytes: 1},
		{Blocks: 1, WLsPerBlock: 1, CellKind: 0, PageBytes: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad geometry accepted", i)
		}
		if _, err := New(g); err == nil {
			t.Errorf("case %d: New accepted bad geometry", i)
		}
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	c := newTestChip(t)
	data := []byte("sensitive file contents")
	lat, err := c.Program(PageAddr{0, 0}, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultTiming().Prog {
		t.Fatalf("program latency %v, want %v", lat, DefaultTiming().Prog)
	}
	res, err := c.Read(PageAddr{0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, data) {
		t.Fatalf("read %q, want %q", res, data)
	}
}

func TestProgramEnforcesAppendOrder(t *testing.T) {
	c := newTestChip(t)
	if _, err := c.Program(PageAddr{0, 1}, []byte("x"), 0); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skipping a page: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := c.Program(PageAddr{0, 0}, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Program(PageAddr{0, 0}, []byte("y"), 0); !errors.Is(err, ErrNotErased) {
		t.Fatalf("overwrite: err = %v, want ErrNotErased", err)
	}
}

func TestProgramRejectsOversizedPayload(t *testing.T) {
	c := newTestChip(t)
	big := make([]byte, smallGeo().PageBytes+1)
	if _, err := c.Program(PageAddr{0, 0}, big, 0); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestAddressValidation(t *testing.T) {
	c := newTestChip(t)
	cases := []PageAddr{{-1, 0}, {0, -1}, {99, 0}, {0, 9999}}
	for _, a := range cases {
		if _, err := c.Read(a, 0); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Read(%v): %v, want ErrBadAddress", a, err)
		}
		if _, err := c.Program(a, nil, 0); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Program(%v): %v, want ErrBadAddress", a, err)
		}
		if _, err := c.PLock(a, 0); !errors.Is(err, ErrBadAddress) {
			t.Errorf("PLock(%v): %v, want ErrBadAddress", a, err)
		}
	}
	if _, err := c.Erase(-1, 0); !errors.Is(err, ErrBadAddress) {
		t.Error("Erase(-1) accepted")
	}
	if _, err := c.BLock(1000, 0); !errors.Is(err, ErrBadAddress) {
		t.Error("BLock(1000) accepted")
	}
}

func TestReadOfFreePage(t *testing.T) {
	c := newTestChip(t)
	res, err := c.Read(PageAddr{3, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("free page should read as erased (nil payload)")
	}
}

// The core Evanesco guarantee: after pLock, the page reads all-zero with
// ErrPageLocked; sibling pages on the same wordline are unaffected.
func TestPLockBlocksExactlyOnePage(t *testing.T) {
	c := newTestChip(t)
	// Program a full wordline (pages 0,1,2 = LSB,CSB,MSB of WL0).
	payloads := [][]byte{[]byte("lsb-data"), []byte("csb-data"), []byte("msb-data")}
	for i, p := range payloads {
		if _, err := c.Program(PageAddr{0, i}, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	lat, err := c.PLock(PageAddr{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultTiming().PLock {
		t.Fatalf("pLock latency %v, want %v", lat, DefaultTiming().PLock)
	}
	// Locked page: all-zero data + ErrPageLocked.
	res, err := c.Read(PageAddr{0, 1}, 0)
	if !errors.Is(err, ErrPageLocked) {
		t.Fatalf("read of locked page: err = %v", err)
	}
	for _, b := range res {
		if b != 0 {
			t.Fatal("locked page leaked non-zero data")
		}
	}
	if len(res) != len(payloads[1]) {
		t.Fatalf("locked read returned %d bytes, want %d", len(res), len(payloads[1]))
	}
	// Sibling pages still read fine.
	for _, i := range []int{0, 2} {
		res, err := c.Read(PageAddr{0, i}, 0)
		if err != nil {
			t.Fatalf("sibling page %d: %v", i, err)
		}
		if !bytes.Equal(res, payloads[i]) {
			t.Fatalf("sibling page %d corrupted", i)
		}
	}
}

func TestPLockIsIdempotent(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("x"))
	mustPLock(t, c, PageAddr{0, 0})
	before := c.flagsProgrammed
	if lat, err := c.PLock(PageAddr{0, 0}, 0); err != nil || lat != DefaultTiming().PLock {
		t.Fatalf("second pLock: %v, %v; want a charged pulse (%v) and no error", lat, err, DefaultTiming().PLock)
	}
	if c.flagsProgrammed != before {
		t.Fatal("second pLock programmed another flag")
	}
	if !pageLocked(t, c, PageAddr{0, 0}) {
		t.Fatal("page must stay locked")
	}
}

// bLock blocks every page of the block, including ones whose pAP is
// enabled (Fig. 7(b): the bAP check comes first).
func TestBLockBlocksWholeBlock(t *testing.T) {
	c := newTestChip(t)
	for i := 0; i < 6; i++ {
		mustProgram(t, c, PageAddr{2, i}, []byte{byte(i)})
	}
	if _, err := c.BLock(2, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		res, err := c.Read(PageAddr{2, i}, 0)
		if !errors.Is(err, ErrBlockLocked) {
			t.Fatalf("page %d: err = %v, want ErrBlockLocked", i, err)
		}
		for _, b := range res {
			if b != 0 {
				t.Fatal("locked block leaked data")
			}
		}
	}
	// Other blocks unaffected.
	mustProgram(t, c, PageAddr{3, 0}, []byte("ok"))
	if _, err := c.Read(PageAddr{3, 0}, 0); err != nil {
		t.Fatalf("unrelated block affected: %v", err)
	}
	// Programming into a locked block is refused.
	if _, err := c.Program(PageAddr{2, 6}, []byte("x"), 0); !errors.Is(err, ErrBlockLocked) {
		t.Fatalf("program into locked block: %v", err)
	}
}

// There is no unlock command: only erase re-enables, and it destroys data.
func TestEraseIsTheOnlyUnlock(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{1, 0}, []byte("secret"))
	mustPLock(t, c, PageAddr{1, 0})
	mustBLock(t, c, 1)

	if _, err := c.Erase(1, 0); err != nil {
		t.Fatal(err)
	}
	if blockLocked(t, c, 1) {
		t.Fatal("erase must clear the bAP flag")
	}
	if pageLocked(t, c, PageAddr{1, 0}) {
		t.Fatal("erase must clear pAP flags")
	}
	res, err := c.Read(PageAddr{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("erase must destroy the data")
	}
	if c.PECycles(1) != 1 {
		t.Fatalf("PECycles = %d, want 1", c.PECycles(1))
	}
	if c.WritePointer(1) != 0 {
		t.Fatal("erase must rewind the write pointer")
	}
}

// Locks survive years of retention: the §5.3/§5.4 operating points were
// chosen so the flags hold for a 5-year retention requirement.
func TestLocksSurviveFiveYears(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("will-be-deleted"))
	mustProgram(t, c, PageAddr{0, 1}, []byte("b"))
	mustPLock(t, c, PageAddr{0, 0})
	mustBLock(t, c, 4)

	c.AdvanceDays(5 * 365)

	if !pageLocked(t, c, PageAddr{0, 0}) {
		t.Fatal("pAP flag decayed within 5 years; operating point (Vp4,100µs) must hold")
	}
	if !blockLocked(t, c, 4) {
		t.Fatal("bAP flag decayed within 5 years; operating point (Vb6,300µs) must hold")
	}
	if _, err := c.Read(PageAddr{0, 0}, 0); !errors.Is(err, ErrPageLocked) {
		t.Fatal("aged locked page became readable")
	}
}

func TestAdvanceDaysPanicsOnNegative(t *testing.T) {
	c := newTestChip(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AdvanceDays(-1)
}

func TestScrubDestroysPage(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("destroy-me"))
	lat, err := c.Scrub(PageAddr{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultTiming().Scrub {
		t.Fatalf("scrub latency %v", lat)
	}
	res, err := c.Read(PageAddr{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res {
		if b != 0 {
			t.Fatal("scrubbed page retained data")
		}
	}
}

// The forensic dump — the paper's threat model — recovers exactly the
// unlocked pages and nothing else.
func TestForensicDumpRespectsLocks(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("public"))
	mustProgram(t, c, PageAddr{0, 1}, []byte("secret"))
	mustProgram(t, c, PageAddr{0, 2}, []byte("also-public"))
	mustPLock(t, c, PageAddr{0, 1})

	dump := c.ForensicDump(0, 0)
	if !bytes.Equal(dump[0], []byte("public")) || !bytes.Equal(dump[2], []byte("also-public")) {
		t.Fatal("forensic dump should recover unlocked pages")
	}
	if bytes.Contains(dump[1], []byte("secret")) {
		t.Fatal("forensic dump recovered locked data")
	}
	for _, b := range dump[1] {
		if b != 0 {
			t.Fatal("locked page dump not all-zero")
		}
	}
}

func TestErrorInjectionOnHealthyChip(t *testing.T) {
	c := newTestChip(t, WithFaults(fault.New(fault.Uniform(1e-3, 3), 0)), WithSeed(3))
	payload := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(payload)
	mustProgram(t, c, PageAddr{0, 0}, payload)
	// At the fault campaigns' rate a fresh chip's injected RBER is far
	// below the ECC limit: every read must succeed and return intact data
	// after correction.
	for i := 0; i < 50; i++ {
		res, err := c.Read(PageAddr{0, 0}, 0)
		if err != nil {
			t.Fatalf("read %d failed: %v", i, err)
		}
		if !bytes.Equal(res, payload) {
			t.Fatalf("read %d returned corrupted data", i)
		}
	}
}

func TestChipSeedDeterminism(t *testing.T) {
	type vote struct {
		programmed  bool
		median, day float64
	}
	run := func() []vote {
		c := newTestChip(t, WithSeed(42))
		mustProgram(t, c, PageAddr{0, 0}, []byte("x"))
		mustPLock(t, c, PageAddr{0, 0})
		votes := make([]vote, c.geo.PagesPerWL())
		for p := range votes {
			v := &votes[p]
			v.programmed, v.median, v.day = c.flagVote(PageAddr{0, p})
		}
		return votes
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("nondeterministic flag cells: %v, then %v", a, b)
	}
}

// Property: for any sequence of program/pLock operations, a locked page
// never returns its data and an unlocked programmed page always does.
func TestLockIsolationProperty(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		c, err := New(smallGeo(), WithSeed(seed))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		type st struct {
			data   []byte
			locked bool
		}
		written := map[PageAddr]*st{}
		next := map[int]int{}
		for _, op := range ops {
			blk := rng.Intn(smallGeo().Blocks)
			switch op % 3 {
			case 0: // program next page of a block
				p := next[blk]
				if p >= smallGeo().PagesPerBlock() {
					continue
				}
				data := []byte{op, byte(blk), byte(p)}
				if _, err := c.Program(PageAddr{blk, p}, data, 0); err == nil {
					written[PageAddr{blk, p}] = &st{data: data}
					next[blk] = p + 1
				}
			case 1: // lock a random written page
				if len(written) == 0 {
					continue
				}
				for a, s := range written {
					if _, err := c.PLock(a, 0); err == nil {
						s.locked = true
					}
					break
				}
			case 2: // erase a block
				if _, err := c.Erase(blk, 0); err == nil {
					for a := range written {
						if a.Block == blk {
							delete(written, a)
						}
					}
					next[blk] = 0
				}
			}
		}
		// Verify invariant.
		for a, s := range written {
			res, err := c.Read(a, 0)
			if s.locked {
				if !errors.Is(err, ErrPageLocked) {
					return false
				}
				for _, b := range res {
					if b != 0 {
						return false
					}
				}
			} else {
				if err != nil || !bytes.Equal(res, s.data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQLCChipGeometry(t *testing.T) {
	g := Geometry{
		Blocks: 4, WLsPerBlock: 4, CellKind: vth.QLC,
		PageBytes: 4096, EnduranceCycles: 500,
	}
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if g.PagesPerWL() != 4 || g.PagesPerBlock() != 16 {
		t.Fatalf("QLC geometry: %d pages/WL, %d/block", g.PagesPerWL(), g.PagesPerBlock())
	}
	// Basic command set works.
	if _, err := c.Program(PageAddr{0, 0}, []byte("q"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PLock(PageAddr{0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(PageAddr{0, 0}, 0); !errors.Is(err, ErrPageLocked) {
		t.Fatal("QLC pLock did not hold")
	}
}

func TestCopybackMovesData(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("move me"))
	lat, err := c.Copyback(PageAddr{0, 0}, PageAddr{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultTiming().Read+DefaultTiming().Prog {
		t.Fatalf("copyback latency %v", lat)
	}
	res, err := c.Read(PageAddr{1, 0}, 0)
	if err != nil || !bytes.Equal(res, []byte("move me")) {
		t.Fatalf("copyback destination: %q, %v", res, err)
	}
}

// Copyback cannot launder locked data: the internal read path is gated
// too, so the copy lands all-zero.
func TestCopybackCannotExfiltrateLockedData(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("locked secret"))
	mustPLock(t, c, PageAddr{0, 0})
	if _, err := c.Copyback(PageAddr{0, 0}, PageAddr{1, 0}, 0); err == nil {
		t.Log("copyback of locked page allowed; checking the payload")
	}
	res, err := c.Read(PageAddr{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res {
		if b != 0 {
			t.Fatal("copyback exfiltrated locked data")
		}
	}
}

func TestCopybackDisciplineErrors(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("x"))
	// Destination out of order.
	if _, err := c.Copyback(PageAddr{0, 0}, PageAddr{1, 5}, 0); err == nil {
		t.Fatal("out-of-order copyback destination accepted")
	}
	if _, err := c.Copyback(PageAddr{-1, 0}, PageAddr{1, 0}, 0); err == nil {
		t.Fatal("bad source accepted")
	}
}

// A destination outside the chip is refused before the source is sensed:
// the source's pending pAP flag, which a sense would draw, stays pending.
func TestCopybackRejectsBadDestinationBeforeSensing(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("x"))
	mustPLock(t, c, PageAddr{0, 0})
	if _, err := c.Copyback(PageAddr{0, 0}, PageAddr{Block: -1}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Copyback to block -1: %v, want ErrBadAddress", err)
	}
	if c.flagsDrawn != 0 {
		t.Fatalf("rejected copyback drew %d flags, want 0", c.flagsDrawn)
	}
}

// Model-based property test: drive the chip with random command
// sequences and mirror every operation in a trivial map-based oracle;
// the chip's observable behaviour must match the oracle exactly.
func TestChipMatchesOracleProperty(t *testing.T) {
	type pageOracle struct {
		data    []byte
		written bool
		locked  bool
	}
	fn := func(seed int64) bool {
		chip, err := New(smallGeo(), WithSeed(seed))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		ppb := smallGeo().PagesPerBlock()
		nb := smallGeo().Blocks
		oracle := make(map[PageAddr]*pageOracle)
		blockLocked := make(map[int]bool)
		writePtr := make(map[int]int)

		for step := 0; step < 300; step++ {
			blk := rng.Intn(nb)
			switch rng.Intn(6) {
			case 0, 1: // program next page
				p := writePtr[blk]
				if p >= ppb || blockLocked[blk] {
					continue
				}
				data := []byte{byte(step), byte(blk), byte(p)}
				if _, err := chip.Program(PageAddr{blk, p}, data, 0); err != nil {
					return false
				}
				oracle[PageAddr{blk, p}] = &pageOracle{data: data, written: true}
				writePtr[blk] = p + 1
			case 2: // pLock a random written page
				p := rng.Intn(ppb)
				st := oracle[PageAddr{blk, p}]
				if st == nil {
					continue
				}
				if _, err := chip.PLock(PageAddr{blk, p}, 0); err != nil {
					return false
				}
				st.locked = true
			case 3: // bLock
				if _, err := chip.BLock(blk, 0); err != nil {
					return false
				}
				blockLocked[blk] = true
			case 4: // erase
				if _, err := chip.Erase(blk, 0); err != nil {
					return false
				}
				for p := 0; p < ppb; p++ {
					delete(oracle, PageAddr{blk, p})
				}
				blockLocked[blk] = false
				writePtr[blk] = 0
			case 5: // read and check against the oracle
				p := rng.Intn(ppb)
				a := PageAddr{blk, p}
				res, err := chip.Read(a, 0)
				st := oracle[a]
				switch {
				case blockLocked[blk]:
					if !errors.Is(err, ErrBlockLocked) {
						return false
					}
					for _, b := range res {
						if b != 0 {
							return false
						}
					}
				case st != nil && st.locked:
					if !errors.Is(err, ErrPageLocked) {
						return false
					}
					for _, b := range res {
						if b != 0 {
							return false
						}
					}
				case st != nil:
					if err != nil || !bytes.Equal(res, st.data) {
						return false
					}
				default:
					if err != nil || res != nil {
						return false
					}
				}
			}
		}
		// Final sweep: every page agrees with the oracle.
		for blk := 0; blk < nb; blk++ {
			for p := 0; p < ppb; p++ {
				a := PageAddr{blk, p}
				res, err := chip.Read(a, 0)
				st := oracle[a]
				if blockLocked[blk] || (st != nil && st.locked) {
					if err == nil {
						return false
					}
					continue
				}
				if st == nil {
					if res != nil {
						return false
					}
				} else if !bytes.Equal(res, st.data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
