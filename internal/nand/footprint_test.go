package nand_test

import (
	"runtime"
	"testing"

	"repro/internal/blockio"
	"repro/internal/nand"
	"repro/internal/nand/nandtest"
	"repro/internal/nand/vth"
	"repro/internal/sanitize"
	"repro/internal/ssd"
)

// defaultScaleChip is one chip of experiment.DefaultScale: 48 blocks of
// 192 TLC wordlines, 16-KiB pages.
func defaultScaleChip() nand.Geometry {
	g := nand.DefaultGeometry()
	g.Blocks = 48
	return g
}

// TestNewFootprint bounds what a chip costs before its first command: a
// 24-byte record per page, the per-block state and the read scratch.
// Payload stores and flag cells are not part of it — they appear on
// first use.
func TestNewFootprint(t *testing.T) {
	geo := defaultScaleChip()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := nand.New(geo)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(geo.TotalPages())
	if perPage > 26 {
		t.Errorf("nand.New allocated %.1f B/page at default-scale geometry, want at most 26", perPage)
	}
	if stores, _, chunks := nandtest.LazyState(c); stores != 0 || chunks != 0 {
		t.Errorf("fresh chip already holds %d payload stores and %d flag chunks", stores, chunks)
	}
}

// TestTimingOnlyFootprint drives a baseline device the way the figure
// runs do — requests carry no payload, nothing is ever locked — through
// enough overwrites to garbage-collect: no chip may create a payload
// store or a flag-cell arena for it.
func TestTimingOnlyFootprint(t *testing.T) {
	s, err := ssd.New(ssd.Config{
		Channels: 2, ChipsPerChannel: 2,
		Chip: nand.Geometry{
			Blocks: 24, WLsPerBlock: 16, CellKind: vth.TLC,
			PageBytes: 4096, EnduranceCycles: 1000,
		},
		OverProvision: 0.25, GCFreeBlocksLow: 2, QueueDepth: 16,
		Policy: sanitize.Baseline(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(req blockio.Request) {
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	logical := int64(s.LogicalPages())
	for lpa, fill := int64(0), logical*3/4; lpa < fill; lpa += 64 { // a 75 % secured prefill
		submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: int32(min(64, fill-lpa))})
	}
	for i, lpa := 0, int64(0); i < 4*int(logical); i, lpa = i+1, (lpa+7)%logical {
		submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
		submit(blockio.Request{Op: blockio.OpRead, LPA: lpa, Pages: 1})
	}
	if st := s.FTL().Stats(); st.GCCopies == 0 || st.Erases == 0 {
		t.Fatalf("no garbage collection ran (%d copies, %d erases): the copyback and erase paths were not exercised", st.GCCopies, st.Erases)
	}
	for i, c := range s.Chips() {
		if stores, _, chunks := nandtest.LazyState(c); stores != 0 || chunks != 0 {
			t.Errorf("chip %d: %d payload stores and %d flag chunks after a timing-only baseline run, want none", i, stores, chunks)
		}
	}
}

// TestFlashOpsAllocsPerRun is the chip's program+pLock+erase loop as an
// allocation assertion: once the flag-cell arena holds a block's worth
// of slots, Erase refills the free list and locking allocates nothing.
func TestFlashOpsAllocsPerRun(t *testing.T) {
	c, err := nand.New(defaultScaleChip())
	if err != nil {
		t.Fatal(err)
	}
	ppb := c.Geometry().PagesPerBlock()
	cycle := func() {
		for page := 0; page < ppb; page++ {
			a := nand.PageAddr{Block: 0, Page: page}
			if _, err := c.Program(a, nil, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := c.PLock(a, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("%.1f allocations per program+pLock+erase block cycle once warm, want 0", allocs)
	}
}

// TestReadCopybackAllocsPerRun: the read paths allocate nothing once the
// chip is warm — neither a host Read, which copies into the read scratch,
// nor a Copyback, whose program reuses a payload buffer the erase
// retired.
func TestReadCopybackAllocsPerRun(t *testing.T) {
	c, err := nand.New(defaultScaleChip())
	if err != nil {
		t.Fatal(err)
	}
	src := nand.PageAddr{Block: 0, Page: 0}
	if _, err := c.Program(src, []byte("relocated payload"), 0); err != nil {
		t.Fatal(err)
	}
	ppb := c.Geometry().PagesPerBlock()
	cycle := func() {
		for page := 0; page < ppb; page++ {
			if _, err := c.Read(src, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Copyback(src, nand.PageAddr{Block: 1, Page: page}, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Erase(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("%.1f allocations per read+copyback block cycle once warm, want 0", allocs)
	}
}
