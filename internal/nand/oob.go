package nand

import "repro/internal/sim"

// OOBMeta is the FTL metadata a controller stamps into a page's
// out-of-band (spare) area alongside the payload: the logical address
// the page was written for, a monotone write sequence number, and the
// request's security class. Real FTLs persist exactly this so a crash
// can rebuild the mapping table from a media scan; the remount path
// (ftl.Restore) keeps the highest-sequence readable copy of each LPA as
// live and re-sanitizes the rest.
type OOBMeta struct {
	// LPA is the logical page the payload belongs to.
	LPA int64
	// Seq is the device-wide monotone write sequence number; among
	// surviving copies of one LPA the highest Seq wins at remount.
	Seq uint64
	// Secure marks the payload as secured data (written with the
	// paper's secure-deletion flag).
	Secure bool
	// Valid distinguishes a real stamp from the zero value. A page
	// without a valid stamp after a crash is a torn write: the program
	// pulse landed but the controller lost power before regaining
	// control.
	Valid bool
}

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
	// Meta is the page's spare-area stamp. The zero value (Valid
	// false) for locked pages, unstamped pages, and torn writes.
	Meta OOBMeta
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
	pr.Meta = OOBMeta{LPA: rec.lpa, Seq: rec.seq, Secure: rec.secure, Valid: rec.valid}
	return pr, nil
}
