// Package ftltest provides a lightweight ftl.Target fake for unit tests:
// it counts operations, applies fixed latencies serially per chip, and
// optionally mirrors every command onto real emulated nand.Chips so
// cross-layer tests can check physical state. ReadableStale is the one
// raw-chip sanitization oracle every layer's tests hold a device to.
package ftltest

import (
	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/nand/vth"
	"repro/internal/sim"
)

// CountingTarget implements ftl.Target with per-op counters and a trivial
// per-chip serial timing model.
type CountingTarget struct {
	Geo ftl.Geometry

	Reads, Programs, Erases uint64
	PLocks, BLocks, Scrubs  uint64
	Copybacks               uint64

	// Batched/multi-plane counters.
	PLockWLs, WLPagesLocked   uint64
	ProgramGroups, ReadGroups uint64

	// Scripted fault hooks: when set and returning non-nil, the
	// operation fails with that error after charging its latency —
	// mirroring the Target contract (a failed Program still consumed
	// its page on any attached chip). Tests use these to script exact
	// failure sequences without probabilistic injection.
	FailProgram func(p ftl.PPA) error
	FailErase   func(block int) error
	FailPLock   func(p ftl.PPA) error
	FailBLock   func(block int) error
	// FailPLockWL scripts batched-pulse failures; per the chip contract
	// a failed pulse commits nothing, so the mirrored chip is untouched.
	FailPLockWL func(block, wl int) error

	// Chips, when non-nil, mirrors every command onto real chip models
	// (len must equal Geo.Chips).
	Chips []*nand.Chip

	chipBusy []sim.Timeline
}

// timing is the chips' datasheet latencies, charged serially per chip.
var timing = nand.DefaultTiming()

// New creates a counting target for the geometry.
func New(geo ftl.Geometry) *CountingTarget {
	geo, err := geo.Resolved()
	if err != nil {
		panic("ftltest: " + err.Error())
	}
	return &CountingTarget{
		Geo:      geo,
		chipBusy: make([]sim.Timeline, geo.Chips),
	}
}

// WithChips attaches real chip models; each must have at least
// Geo.BlocksPerChip blocks and Geo.PagesPerBlock pages per block.
func (t *CountingTarget) WithChips(chips []*nand.Chip) *CountingTarget {
	t.Chips = chips
	return t
}

func (t *CountingTarget) exec(chip int, d sim.Micros, dep sim.Micros) sim.Micros {
	_, end := t.chipBusy[chip].Reserve(dep, d)
	return end
}

func (t *CountingTarget) addr(p ftl.PPA) (int, nand.PageAddr) {
	chip, block, page := t.Geo.Locate(p)
	return chip, nand.PageAddr{Block: block, Page: page}
}

// Read implements ftl.Target.
func (t *CountingTarget) Read(p ftl.PPA, dep sim.Micros) sim.Micros {
	_, done := t.read(p, dep)
	return done
}

// Move implements ftl.Target: it counts one read and one program.
func (t *CountingTarget) Move(src, dst ftl.PPA, m blockio.Stamp, dep sim.Micros) (sim.Micros, error) {
	data, readDone := t.read(src, dep)
	return t.Program(dst, data, m, readDone)
}

// read returns the mirrored chip's payload (nil without chips or for an
// unreadable page), valid until the next operation on that chip.
func (t *CountingTarget) read(p ftl.PPA, dep sim.Micros) ([]byte, sim.Micros) {
	t.Reads++
	chip, a := t.addr(p)
	var data []byte
	if t.Chips != nil {
		if d, err := t.Chips[chip].Read(a, dep); err == nil {
			data = d
		}
	}
	return data, t.exec(chip, timing.Read, dep)
}

// failProgram is the scripted outcome of a program of p.
func (t *CountingTarget) failProgram(p ftl.PPA) error {
	if t.FailProgram != nil {
		return t.FailProgram(p)
	}
	return nil
}

// stampOf is what a mirrored program lays in the spare area: m when the
// program succeeds, nothing when it fails.
func stampOf(m blockio.Stamp, err error) []blockio.Stamp {
	if err != nil {
		return nil
	}
	return []blockio.Stamp{m}
}

// Program implements ftl.Target.
func (t *CountingTarget) Program(p ftl.PPA, data []byte, m blockio.Stamp, dep sim.Micros) (sim.Micros, error) {
	t.Programs++
	chip, a := t.addr(p)
	err := t.failProgram(p)
	if t.Chips != nil {
		if data == nil {
			data = []byte{0xA5}
		}
		if _, cerr := t.Chips[chip].Program(a, data, dep, stampOf(m, err)...); cerr != nil {
			panic("ftltest: FTL violated flash discipline: " + cerr.Error())
		}
	}
	return t.exec(chip, timing.Prog, dep), err
}

// CopybackRun implements ftl.Target through the mirrored chip's own
// Copyback command, one page at a time: the run stops after the first
// destination FailProgram scripts to fail, which is consumed unstamped.
func (t *CountingTarget) CopybackRun(block int, pages []int, dst ftl.PPA, m []blockio.Stamp, dep sim.Micros) (sim.Micros, sim.Micros, int, error) {
	chip, local := t.Geo.ChipOfBlock(block), t.Geo.BlockInChip(block)
	var err error
	copies := 0
	for ; copies < len(pages) && err == nil; copies++ {
		t.Copybacks++
		err = t.failProgram(dst + ftl.PPA(copies))
		if t.Chips != nil {
			_, aDst := t.addr(dst + ftl.PPA(copies))
			aSrc := nand.PageAddr{Block: local, Page: pages[copies]}
			if _, cerr := t.Chips[chip].Copyback(aSrc, aDst, dep, stampOf(m[copies], err)...); cerr != nil {
				panic("ftltest: copyback: " + cerr.Error())
			}
		}
	}
	n := copies
	if err != nil {
		n--
	}
	start, done := t.chipBusy[chip].Reserve(dep, sim.Micros(copies)*(timing.Read+timing.Prog))
	return start, done, n, err
}

// Erase implements ftl.Target.
func (t *CountingTarget) Erase(block int, dep sim.Micros) (sim.Micros, error) {
	t.Erases++
	chip := t.Geo.ChipOfBlock(block)
	done := t.exec(chip, timing.Erase, dep)
	if t.FailErase != nil {
		if err := t.FailErase(block); err != nil {
			// A failed erase leaves the mirrored chip untouched.
			return done, err
		}
	}
	if t.Chips != nil {
		if _, err := t.Chips[chip].Erase(t.Geo.BlockInChip(block), dep); err != nil {
			panic("ftltest: " + err.Error())
		}
	}
	return done, nil
}

// PLock implements ftl.Target.
func (t *CountingTarget) PLock(p ftl.PPA, dep sim.Micros) (sim.Micros, error) {
	t.PLocks++
	chip, a := t.addr(p)
	done := t.exec(chip, timing.PLock, dep)
	if t.FailPLock != nil {
		if err := t.FailPLock(p); err != nil {
			// A failed flag program leaves the mirrored chip unlocked.
			return done, err
		}
	}
	if t.Chips != nil {
		if _, err := t.Chips[chip].PLock(a, dep); err != nil {
			panic("ftltest: " + err.Error())
		}
	}
	return done, nil
}

// BLock implements ftl.Target.
func (t *CountingTarget) BLock(block int, dep sim.Micros) (sim.Micros, error) {
	t.BLocks++
	chip := t.Geo.ChipOfBlock(block)
	done := t.exec(chip, timing.BLock, dep)
	if t.FailBLock != nil {
		if err := t.FailBLock(block); err != nil {
			return done, err
		}
	}
	if t.Chips != nil {
		if _, err := t.Chips[chip].BLock(t.Geo.BlockInChip(block), dep); err != nil {
			panic("ftltest: " + err.Error())
		}
	}
	return done, nil
}

// Scrub implements ftl.Target.
func (t *CountingTarget) Scrub(p ftl.PPA, dep sim.Micros) sim.Micros {
	t.Scrubs++
	chip, a := t.addr(p)
	if t.Chips != nil {
		if _, err := t.Chips[chip].Scrub(a, dep); err != nil {
			panic("ftltest: " + err.Error())
		}
	}
	return t.exec(chip, timing.Scrub, dep)
}

// PLockWL implements ftl.Target: one shared tpLock pulse for every
// still-unlocked page of the wordline.
func (t *CountingTarget) PLockWL(block, wl int, pages []ftl.PPA, dep sim.Micros) (sim.Micros, error) {
	t.PLockWLs++
	t.WLPagesLocked += uint64(len(pages))
	chip := t.Geo.ChipOfBlock(block)
	done := t.exec(chip, timing.PLock, dep)
	if t.FailPLockWL != nil {
		if err := t.FailPLockWL(block, wl); err != nil {
			return done, err
		}
	}
	if t.Chips != nil {
		slots := make([]int, len(pages))
		for i, p := range pages {
			slots[i] = t.Geo.WLSlot(p)
		}
		if _, err := t.Chips[chip].PLockWL(t.Geo.BlockInChip(block), wl, slots, dep); err != nil {
			panic("ftltest: " + err.Error())
		}
	}
	return done, nil
}

// ProgramGroup implements ftl.Target: per-page payload delivery
// with one shared tPROG.
func (t *CountingTarget) ProgramGroup(pages []ftl.PPA, datas [][]byte, m blockio.Stamp, dep sim.Micros) (sim.Micros, []error) {
	t.ProgramGroups++
	chip := t.Geo.ChipOf(pages[0])
	errs := make([]error, len(pages))
	first := m.LPA
	for i, p := range pages {
		t.Programs++
		m.LPA = first + int64(i)
		errs[i] = t.failProgram(p)
		if t.Chips != nil {
			data := datas[i]
			if data == nil {
				data = []byte{0xA5}
			}
			_, a := t.addr(p)
			if _, err := t.Chips[chip].Program(a, data, dep, stampOf(m, errs[i])...); err != nil {
				panic("ftltest: FTL violated flash discipline: " + err.Error())
			}
		}
		if errs[i] == nil {
			m.Seq++
		}
	}
	return t.exec(chip, timing.Prog, dep), errs
}

// ReadGroup implements ftl.Target: one shared tREAD for the group
// (grouped host reads are timing-only above the FTL).
func (t *CountingTarget) ReadGroup(pages []ftl.PPA, dep sim.Micros) sim.Micros {
	t.ReadGroups++
	for _, p := range pages {
		t.Reads++
		if t.Chips != nil {
			chip, a := t.addr(p)
			if _, err := t.Chips[chip].Read(a, dep); err != nil {
				// Locked or uncorrectable pages still charge the shared
				// read; the grouped path discards payloads either way.
				continue
			}
		}
	}
	return t.exec(t.Geo.ChipOf(pages[0]), timing.Read, dep)
}

// BuildChips constructs real nand.Chip models matching the geometry: the
// paper's chip (nand.DefaultGeometry) with geo's blocks, pages and
// planes, its cell kind from the pages per wordline. The t parameter is
// any test handle with Fatal (testing.T or testing.B).
func BuildChips(t interface{ Fatal(...any) }, geo ftl.Geometry) []*nand.Chip {
	g := nand.DefaultGeometry()
	g.Blocks, g.WLsPerBlock, g.PageBytes, g.Planes = geo.BlocksPerChip, geo.PagesPerBlock/geo.PagesPerWL, geo.PageBytes, geo.Planes
	switch geo.PagesPerWL {
	case 1:
		g.CellKind = vth.SLC
	case 2:
		g.CellKind = vth.MLC
	case 4:
		g.CellKind = vth.QLC
	}
	chips := make([]*nand.Chip, geo.Chips)
	for i := range chips {
		c, err := nand.New(g, nand.WithSeed(int64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		chips[i] = c
	}
	return chips
}

// SmallGeometry returns a compact geometry for fast tests: 2 chips × 8
// blocks × 12 pages (4 TLC wordlines).
func SmallGeometry() ftl.Geometry {
	geo, err := ftl.Geometry{
		Chips:         2,
		BlocksPerChip: 8,
		PagesPerBlock: 12,
		PagesPerWL:    3,
		PageBytes:     4096,
	}.Resolved()
	if err != nil {
		panic("ftltest: " + err.Error())
	}
	return geo
}

// SmallConfig returns a matching FTL config with ~25% over-provisioning.
func SmallConfig() ftl.Config {
	geo := SmallGeometry()
	return ftl.Config{
		Geometry:        geo,
		LogicalPages:    geo.TotalPages() / 2,
		GCFreeBlocksLow: 2,
	}
}
