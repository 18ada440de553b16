package nand

import (
	"bytes"
	"testing"

	"repro/internal/adopt/adopttest"
	"repro/internal/fault"
	"repro/internal/nand/vth"
)

// rawDump reads every page of the chip the way the §5.1 attacker does,
// through ForensicDump: a locked page reads as zeros, and a byte after
// each page tells an erased page (nil) from a programmed one.
func rawDump(c *Chip) []byte {
	var out []byte
	for b := 0; b < c.geo.Blocks; b++ {
		for _, page := range c.ForensicDump(b, 0) {
			out = append(append(out, page...), byte(min(len(page), 1)))
		}
	}
	return out
}

// TestNewFromEqualsNew is the property that makes handing a chip's
// storage on safe: whatever the donor went through — injected faults,
// real payloads, page and block locks, years of retention, a power cut,
// two planes — a chip built from it is, field for field and down to the
// RNG state, the chip New builds, and reads back the same at the pins.
func TestNewFromEqualsNew(t *testing.T) {
	base := Geometry{
		Blocks: 8, WLsPerBlock: 4, CellKind: vth.TLC, PageBytes: 64, EnduranceCycles: 1000,
	}
	with := func(edit func(*Geometry)) Geometry {
		g := base
		edit(&g)
		return g
	}
	for _, next := range []struct {
		name string
		geo  Geometry
		opts func() []Option
	}{
		{"same shape, other seed, no faults", base, func() []Option { return []Option{WithSeed(99)} }},
		{"same shape, faults and a cut schedule", with(func(g *Geometry) { g.Planes = 2 }), func() []Option {
			return []Option{WithSeed(3), WithPowerCut(fault.NewCutState()),
				WithFaults(fault.New(fault.Uniform(1e-2, 5), 1))}
		}},
		{"smaller, MLC", with(func(g *Geometry) { g.Blocks, g.WLsPerBlock, g.PageBytes, g.CellKind = 4, 3, 32, vth.MLC }),
			func() []Option { return nil }},
		{"larger", with(func(g *Geometry) { g.Blocks, g.WLsPerBlock, g.PageBytes = 12, 6, 128 }),
			func() []Option { return []Option{WithSeed(2)} }},
	} {
		t.Run(next.name, func(t *testing.T) {
			_, donor := runMediaScript(t, nil, 2, 5)
			stores, used, _ := donor.LazyState()
			var wear int
			for b := range donor.blocks {
				wear += donor.blocks[b].peCycles
			}
			if stores == 0 || used == 0 || donor.opCount[OpRead] == 0 || wear == 0 || donor.dayOffset == 0 {
				t.Fatalf("donor is not dirty: %d payload stores, %d flag chunks, %d reads, %d P/E cycles, day %v",
					stores, used, donor.opCount[OpRead], wear, donor.dayOffset)
			}
			fresh, err := New(next.geo, next.opts()...)
			if err != nil {
				t.Fatal(err)
			}
			adopted, err := NewFrom(donor, next.geo, next.opts()...)
			if err != nil {
				t.Fatal(err)
			}
			if d := adopttest.Diff(fresh, adopted); d != "" {
				t.Errorf("chip built from a used one differs from a new one at %s", d)
			}
			if stores, used, _ := adopted.LazyState(); stores != 0 || used != 0 {
				t.Errorf("adopted chip starts with %d payload stores and %d flag chunks in use", stores, used)
			}
			if !bytes.Equal(rawDump(fresh), rawDump(adopted)) {
				t.Error("raw dump of the adopted chip differs from a new chip's")
			}
		})
	}
}
