package ftl_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ftl"
)

// refAddress is the address decomposition written with plain / and %,
// the way every layer used to spell it. It lives only here, as the
// reference the reciprocal-multiply resolver is compared against.
type refAddress struct {
	chip, blockInChip, page int
	block, plane            int
	wlIndex, wlSlot         int
	wlStart                 ftl.PPA
}

func refDecompose(g ftl.Geometry, p ftl.PPA) refAddress {
	block := int(p) / g.PagesPerBlock
	page := int(p) % g.PagesPerBlock
	return refAddress{
		chip:        block / g.BlocksPerChip,
		blockInChip: block % g.BlocksPerChip,
		page:        page,
		block:       block,
		plane:       (block % g.BlocksPerChip) % g.PlaneCount(),
		wlIndex:     int(p) / g.PagesPerWL,
		wlSlot:      page % g.PagesPerWL,
		wlStart:     ftl.PPA(int(p) - page + (page/g.PagesPerWL)*g.PagesPerWL),
	}
}

// checkPPA compares every decomposing helper with the reference at one
// address and round-trips the coordinates through PPAOf.
func checkPPA(t *testing.T, g ftl.Geometry, p ftl.PPA) {
	t.Helper()
	want := refDecompose(g, p)
	chip, blockInChip, page := g.Locate(p)
	got := refAddress{
		chip: chip, blockInChip: blockInChip, page: page,
		block: g.BlockOf(p), plane: g.PlaneOfBlock(g.BlockOf(p)),
		wlIndex: g.WLIndex(p), wlSlot: g.WLSlot(p), wlStart: g.WLStart(p),
	}
	if got != want {
		t.Fatalf("PPA %d: resolver %+v, reference %+v", p, got, want)
	}
	if g.ChipOf(p) != want.chip || g.PageInBlock(p) != want.page {
		t.Fatalf("PPA %d: ChipOf %d PageInBlock %d, reference %+v", p, g.ChipOf(p), g.PageInBlock(p), want)
	}
	if back := g.PPAOf(chip, blockInChip, page); back != p {
		t.Fatalf("PPA %d: PPAOf(Locate) = %d", p, back)
	}
}

// checkBlock compares the block-indexed helpers with the reference.
func checkBlock(t *testing.T, g ftl.Geometry, block int) {
	t.Helper()
	chip, local := block/g.BlocksPerChip, block%g.BlocksPerChip
	if g.ChipOfBlock(block) != chip || g.BlockInChip(block) != local || g.PlaneOfBlock(block) != local%g.PlaneCount() {
		t.Fatalf("block %d: resolver (%d, %d, plane %d), reference (%d, %d, plane %d)", block,
			g.ChipOfBlock(block), g.BlockInChip(block), g.PlaneOfBlock(block), chip, local, local%g.PlaneCount())
	}
	if first := g.FirstPPA(block); g.BlockOf(first) != block || g.PageInBlock(first) != 0 {
		t.Fatalf("block %d: FirstPPA %d resolves to block %d page %d", block, first, g.BlockOf(first), g.PageInBlock(first))
	}
}

func mustResolve(t *testing.T, g ftl.Geometry) ftl.Geometry {
	t.Helper()
	r, err := g.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResolverMatchesDivisionExhaustively checks every PPA and every
// block of the three experiment scales and of the degenerate shapes
// where a reciprocal is most likely to be off by one: dimensions of 1,
// primes, powers of two, every cell kind and plane count.
func TestResolverMatchesDivisionExhaustively(t *testing.T) {
	geos := []ftl.Geometry{
		{Chips: 8, BlocksPerChip: 24, PagesPerBlock: 48, PagesPerWL: 3},   // experiment.SmallScale
		{Chips: 8, BlocksPerChip: 48, PagesPerBlock: 576, PagesPerWL: 3},  // experiment.DefaultScale
		{Chips: 8, BlocksPerChip: 428, PagesPerBlock: 576, PagesPerWL: 3}, // experiment.PaperScale
		{Chips: 1, BlocksPerChip: 1, PagesPerBlock: 1, PagesPerWL: 1},
		{Chips: 5, BlocksPerChip: 7, PagesPerBlock: 1, PagesPerWL: 1},
		{Chips: 5, BlocksPerChip: 1, PagesPerBlock: 9, PagesPerWL: 3},
		{Chips: 1, BlocksPerChip: 13, PagesPerBlock: 22, PagesPerWL: 2},
		{Chips: 7, BlocksPerChip: 13, PagesPerBlock: 11, PagesPerWL: 11},
		{Chips: 3, BlocksPerChip: 31, PagesPerBlock: 127, PagesPerWL: 1},
		{Chips: 4, BlocksPerChip: 16, PagesPerBlock: 64, PagesPerWL: 4, Planes: 4},
		{Chips: 2, BlocksPerChip: 6, PagesPerBlock: 12, PagesPerWL: 3, Planes: 2},
		{Chips: 3, BlocksPerChip: 12, PagesPerBlock: 10, PagesPerWL: 2, Planes: 4},
		{Chips: 2, BlocksPerChip: 5, PagesPerBlock: 7, PagesPerWL: 1, Planes: 1},
	}
	for _, dims := range geos {
		name := fmt.Sprintf("%dx%dx%d/wl%d/planes%d", dims.Chips, dims.BlocksPerChip, dims.PagesPerBlock, dims.PagesPerWL, dims.Planes)
		t.Run(name, func(t *testing.T) {
			g := mustResolve(t, dims)
			for p := 0; p < g.TotalPages(); p++ {
				checkPPA(t, g, ftl.PPA(p))
			}
			for b := 0; b < g.TotalBlocks(); b++ {
				checkBlock(t, g, b)
			}
		})
	}
}

// TestGeometryPageLimit pins the bound PPA's width puts on a geometry:
// MaxPages pages are addressable (the all-ones PPA is NoPPA), one more is
// rejected with an error naming the limit, and absurd dimensions are
// rejected rather than overflowing the product.
func TestGeometryPageLimit(t *testing.T) {
	const limit = ftl.MaxPages // 2³² − 2 = 2 · 2147483647
	cases := []struct {
		g  ftl.Geometry
		ok bool
	}{
		{ftl.Geometry{Chips: 2, BlocksPerChip: 2147483647, PagesPerBlock: 1, PagesPerWL: 1}, true},
		{ftl.Geometry{Chips: 1, BlocksPerChip: 1, PagesPerBlock: limit, PagesPerWL: 1}, true},
		{ftl.Geometry{Chips: 1, BlocksPerChip: 1, PagesPerBlock: limit + 1, PagesPerWL: 1}, false},
		{ftl.Geometry{Chips: 3, BlocksPerChip: 1431655765, PagesPerBlock: 1, PagesPerWL: 1}, false}, // 2³² − 1
		{ftl.Geometry{Chips: 1 << 16, BlocksPerChip: 1 << 16, PagesPerBlock: 1, PagesPerWL: 1}, false},
		{ftl.Geometry{Chips: 1 << 40, BlocksPerChip: 1 << 40, PagesPerBlock: 1 << 40, PagesPerWL: 1}, false},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if c.ok {
			if err != nil {
				t.Errorf("%d×%d×%d rejected: %v", c.g.Chips, c.g.BlocksPerChip, c.g.PagesPerBlock, err)
				continue
			}
			// The last addressable page sits below NoPPA and resolves.
			g := mustResolve(t, c.g)
			last := ftl.PPA(g.TotalPages() - 1)
			if last >= ftl.NoPPA {
				t.Errorf("last page %d collides with NoPPA", last)
			}
			checkPPA(t, g, last)
			checkPPA(t, g, 0)
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(uint64(limit))) {
			t.Errorf("%d×%d×%d: error %v, want one naming the %d-page limit",
				c.g.Chips, c.g.BlocksPerChip, c.g.PagesPerBlock, err, uint64(limit))
		}
		if _, rerr := c.g.Resolved(); rerr == nil {
			t.Errorf("%d×%d×%d resolved despite failing validation", c.g.Chips, c.g.BlocksPerChip, c.g.PagesPerBlock)
		}
	}
}

// FuzzGeometryResolve draws geometries of any size the page limit
// admits — far beyond what an exhaustive sweep can cover — and compares
// the resolver with the reference at the addresses where a wrong
// reciprocal shows first: both ends of the page space and the
// neighbourhood of a block, chip and wordline boundary near a probe.
// Each dimension is folded into the room the earlier ones left, so every
// input is a valid geometry and the largest ones touch MaxPages.
func FuzzGeometryResolve(f *testing.F) {
	f.Add(uint32(7), uint32(47), uint32(191), uint8(2), uint8(0), uint32(123456)) // DefaultScale
	f.Add(uint32(7), uint32(213), uint32(191), uint8(2), uint8(1), uint32(1<<31)) // PaperScale, 2 planes
	f.Add(uint32(0), uint32(0), uint32(0), uint8(0), uint8(0), uint32(0))         // 1×1×1
	f.Add(uint32(0), uint32(0), uint32(1<<32-3), uint8(0), uint8(0), uint32(1<<32-3))
	f.Add(uint32(65534), uint32(65535), uint32(0), uint8(0), uint8(0), uint32(1<<32-7))
	f.Add(uint32(2), uint32(0), uint32(1<<31), uint8(3), uint8(2), uint32(1<<30))
	f.Fuzz(func(t *testing.T, chips, blocksPerChip, wlsPerBlock uint32, cellBits, planeBits uint8, probe uint32) {
		planes := 1 << (planeBits % 3)    // 1, 2, 4
		pagesPerWL := 1 + int(cellBits%4) // SLC … QLC
		room := uint64(ftl.MaxPages) / uint64(planes*pagesPerWL)
		c := 1 + uint64(chips)%room
		room /= c
		b := 1 + uint64(blocksPerChip)%room
		room /= b
		w := 1 + uint64(wlsPerBlock)%room
		g := mustResolve(t, ftl.Geometry{
			Chips:         int(c),
			BlocksPerChip: int(b) * planes,
			PagesPerBlock: int(w) * pagesPerWL,
			PagesPerWL:    pagesPerWL,
			Planes:        planes,
		})
		total := uint64(g.TotalPages())
		at := uint64(probe) % total
		blockStart := at - at%uint64(g.PagesPerBlock)
		chipStart := at - at%uint64(g.PagesPerBlock*g.BlocksPerChip)
		for _, p := range []uint64{0, total - 1, at, blockStart, chipStart} {
			for d := uint64(0); d <= uint64(g.PagesPerWL); d++ {
				if p+d < total {
					checkPPA(t, g, ftl.PPA(p+d))
				}
				if p >= d {
					checkPPA(t, g, ftl.PPA(p-d))
				}
			}
			checkBlock(t, g, int(p/uint64(g.PagesPerBlock)))
		}
		checkBlock(t, g, g.TotalBlocks()-1)
	})
}
