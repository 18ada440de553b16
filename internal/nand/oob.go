package nand

import (
	"repro/internal/blockio"
	"repro/internal/sim"
)

// PageProbe is one physical page's surviving media state as seen by the
// controller's boot-time remount scan. The probe models the flash
// array's raw state machine view (write pointer, access-control flags,
// spare area) rather than a data-path read: it counts no read and draws
// no fault decision, so a remount scan leaves the op counters and the
// fault schedule untouched.
type PageProbe struct {
	// Programmed reports whether the block's write pointer has passed
	// the page.
	Programmed bool
	// Locked reports whether the page is unreadable (pAP disabled, or
	// the enclosing block's bAP disabled), evaluated with retention
	// decay up to now.
	Locked bool
	// NonZero reports whether the readable payload contains at least
	// one nonzero byte. Always false for locked pages — the probe
	// honours the same data-out gating as reads.
	NonZero bool
	// Stamped reports that the page carries a spare-area stamp, Stamp.
	// It is false for locked pages, unstamped pages, and torn writes: a
	// programmed page without a stamp after a crash is a write whose
	// pulse landed before the controller lost power.
	Stamped bool
	Stamp   blockio.Stamp
}

// ProbePage returns the remount scan's view of one page.
func (c *Chip) ProbePage(a PageAddr, now sim.Micros) (PageProbe, error) {
	if err := c.checkAddr(a); err != nil {
		return PageProbe{}, err
	}
	blk := &c.blocks[a.Block]
	pr := PageProbe{Programmed: a.Page < blk.writePtr}
	day := c.nowDays(now)
	rec := c.rec(a)
	if c.blockLockedAt(blk, day) || c.pageLockedAt(rec, day) {
		pr.Locked = true
		return pr, nil
	}
	if !pr.Programmed {
		return pr, nil
	}
	for _, b := range blk.payload(a.Page) {
		if b != 0 {
			pr.NonZero = true
			break
		}
	}
	pr.Stamped, pr.Stamp = rec.valid, blockio.Stamp{LPA: rec.lpa, Seq: rec.seq, Secure: rec.secure}
	return pr, nil
}
