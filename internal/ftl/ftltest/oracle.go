package ftltest

import (
	"slices"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// ReadableStale is the sanitization oracle: the chip-off adversary of
// the paper's §5.1, which de-solders the chips and reads every page
// raw. It returns, in PPA order, every physical page that is not live in
// f and whose raw read on chips at now succeeds with a nonzero byte —
// free pages included, since a page the FTL counts as free must hold
// nothing readable. A sanitizing device returns none after every
// secured overwrite and delete; a baseline device returns its stale
// copies.
func ReadableStale(f *ftl.FTL, chips []*nand.Chip, now sim.Micros) []ftl.PPA {
	g := f.Geometry()
	var out []ftl.PPA
	for p := range ftl.PPA(g.TotalPages()) {
		if f.Status(p).Live() {
			continue
		}
		chip, block, page := g.Locate(p)
		data, err := chips[chip].Read(nand.PageAddr{Block: block, Page: page}, now)
		if err == nil && slices.ContainsFunc(data, func(b byte) bool { return b != 0 }) {
			out = append(out, p)
		}
	}
	return out
}
