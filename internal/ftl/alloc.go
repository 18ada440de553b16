package ftl

import "fmt"

// allocate returns the next free physical page, striping host writes
// across chips round-robin for channel parallelism.
func (f *FTL) allocate() (PPA, error) {
	for i := range f.chips {
		if p, err := f.allocateOnChip(f.rrChip(i)); err == nil {
			return p, nil
		}
	}
	retired := 0
	for _, r := range f.retired {
		if r {
			retired++
		}
	}
	return 0, fmt.Errorf(
		"ftl: device out of space (%d/%d blocks retired, %d reusable, %d programs quarantined): "+
			"the over-provisioning is gone — likely consumed by injected faults",
		retired, f.geo.TotalBlocks(), f.FreeBlocks(), f.stats.ProgramFailures)
}

// rrChip advances the round-robin cursor and returns the chip i places
// past it, for the i-th probe of one allocation. (Every probe advances
// the cursor and adds its own index, so the probes of a failing
// allocation step by two; the chip order is simulated behaviour and
// stays as it is.) The cursor is kept in [0, chips) so neither step
// needs a division.
func (f *FTL) rrChip(i int) int {
	n := len(f.chips)
	cur := &f.chips[0].rrOffset
	if *cur++; *cur == n {
		*cur = 0
	}
	chip := *cur + i
	if chip >= n {
		chip -= n
	}
	return chip
}

// allocateNear takes a relocation's destination page: on the source's
// chip while it has room — which is what lets the move be a copyback —
// and on any chip otherwise. sameChip reports which of the two happened.
// Running truly out of space here means the over-provisioning invariant
// was violated, a configuration error: it panics.
func (f *FTL) allocateNear(chip int) (p PPA, sameChip bool) {
	if p, err := f.allocateOnChip(chip); err == nil {
		return p, true
	}
	p, err := f.allocate()
	if err != nil {
		panic(err)
	}
	return p, f.geo.ChipOf(p) == chip
}

// allocateOnChip takes the next page of one of the chip's active blocks,
// rotating across planes so multi-plane devices keep every plane's
// frontier warm. With a single plane it reduces to the classic
// one-active-block allocator.
func (f *FTL) allocateOnChip(chip int) (PPA, error) {
	cs := &f.chips[chip]
	var lastErr error
	pl := cs.planeCursor
	for i := 0; i < f.planes; i++ {
		p, err := f.allocateOnPlane(chip, pl)
		if pl++; pl == f.planes {
			pl = 0
		}
		if err == nil {
			cs.planeCursor = pl
			return p, nil
		}
		lastErr = err
	}
	return 0, lastErr
}

// allocateOnPlane takes the next page of the plane's active block,
// opening (and lazily erasing) a new block when needed.
func (f *FTL) allocateOnPlane(chip, plane int) (PPA, error) {
	cs := &f.chips[chip]
	if cs.active[plane] < 0 || cs.frontier[plane] >= f.geo.PagesPerBlock {
		if err := f.openBlock(chip, plane); err != nil {
			return 0, err
		}
	}
	block := cs.active[plane]
	p := f.geo.FirstPPA(block) + PPA(cs.frontier[plane])
	cs.frontier[plane]++
	f.usedInBlock[block]++
	return p, nil
}

// allocateStripe allocates up to want pages on distinct planes of a
// single chip, for one multi-plane program. It returns however many
// pages a chip could provide (possibly just one; the caller programs
// them — they are consumed), or an empty slice when every chip is out of
// space. The returned slice is a scratch buffer valid until the next
// allocateStripe call.
func (f *FTL) allocateStripe(want int) []PPA {
	stripe := f.stripeScratch[:0]
	for i := range f.chips {
		chip := f.rrChip(i)
		for pl := 0; pl < f.planes && len(stripe) < want; pl++ {
			if p, err := f.allocateOnPlane(chip, pl); err == nil {
				stripe = append(stripe, p)
			}
		}
		if len(stripe) > 0 {
			break
		}
	}
	f.stripeScratch = stripe
	return stripe
}

// openBlock selects the plane's next active block. Lazy erase happens
// here: a block queued for erase is erased immediately before reuse, so
// its open interval is effectively zero (§5.4).
func (f *FTL) openBlock(chip, plane int) error {
	cs := &f.chips[chip]
	cs.active[plane] = -1
	cs.frontier[plane] = 0
	// The most recently freed block of this plane.
	pick := -1
	for i := len(cs.free) - 1; i >= 0; i-- {
		if f.geo.PlaneOfBlock(cs.free[i]) == plane {
			pick = i
			break
		}
	}
	if pick >= 0 {
		cs.active[plane] = cs.free[pick]
		cs.free = append(cs.free[:pick], cs.free[pick+1:]...)
		return nil
	}
	for {
		pick = -1
		for i, b := range cs.pendingErase {
			if f.geo.PlaneOfBlock(b) == plane {
				pick = i
				break
			}
		}
		if pick < 0 {
			break
		}
		block := cs.pendingErase[pick]
		cs.pendingErase = append(cs.pendingErase[:pick], cs.pendingErase[pick+1:]...)
		if !f.eraseBlock(block) {
			// The lazy erase failed and retired the block; try the next
			// candidate.
			continue
		}
		cs.active[plane] = block
		return nil
	}
	return fmt.Errorf("ftl: chip %d plane %d out of blocks", chip, plane)
}

// reusableBlocks counts blocks the chip can still open.
func (f *FTL) reusableBlocks(chip int) int {
	cs := &f.chips[chip]
	return len(cs.free) + len(cs.pendingErase)
}

// FreeBlocks reports the total reusable blocks across the device (free +
// pending erase), for tests and capacity probes.
func (f *FTL) FreeBlocks() int {
	total := 0
	for c := range f.chips {
		total += f.reusableBlocks(c)
	}
	return total
}
