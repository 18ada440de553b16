package nand

import (
	"repro/internal/blockio"
	"repro/internal/sim"
)

// flagVote returns what a page's pAP flag stores for the majority
// circuit: whether it was programmed, the median of its k cell Vths and
// the lock day (false, 0, 0 when the flag was never programmed). Like
// every read of a vote, it draws the pending flags' cells first.
func (c *Chip) flagVote(a PageAddr) (programmed bool, median, day float64) {
	rec := c.rec(a)
	if rec.flag == 0 {
		return false, 0, 0
	}
	f := c.flagAt(rec.flag)
	return true, f.median, f.day
}

// StampOOB is Program's stamp step on its own, behind the address and
// write-pointer checks, so TestChipMediaGolden's script can stamp pages
// apart from programming them — and try to stamp any address.
func (c *Chip) StampOOB(a PageAddr, m blockio.Stamp) error {
	if err := c.checkAddr(a); err != nil {
		return err
	}
	if a.Page >= c.blocks[a.Block].writePtr {
		return ErrNotErased
	}
	rec := c.rec(a)
	rec.lpa, rec.seq, rec.secure, rec.valid = m.LPA, m.Seq, m.Secure, true
	return nil
}

// LazyState reports how much on-first-use state the chip holds: blocks
// with a payload store, flag-arena chunks that slots have been handed out
// from, and chunks held in all (a chip built by NewFrom starts with its
// donor's, zeroed and unused).
func (c *Chip) LazyState() (payloadStores, flagChunksUsed, flagChunksHeld int) {
	for b := range c.blocks {
		if c.blocks[b].data != nil {
			payloadStores++
		}
	}
	return payloadStores, (int(c.flagSlots) + flagChunkSlots - 1) / flagChunkSlots, len(c.flagChunks)
}

// IsPageLocked reports the current pAP state of a page (majority vote,
// including any retention decay up to now).
func (c *Chip) IsPageLocked(a PageAddr, now sim.Micros) (bool, error) {
	if err := c.checkAddr(a); err != nil {
		return false, err
	}
	return c.pageLockedAt(c.rec(a), c.nowDays(now)), nil
}
