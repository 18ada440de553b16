package nand

// flagCells returns the stored Vths and lock day of a page's flag cells
// (nil, 0 when the flag was never programmed).
func (c *Chip) flagCells(a PageAddr) ([]float64, float64) {
	rec := c.rec(a)
	if rec.flag == 0 {
		return nil, 0
	}
	slot := c.flagSlot(rec.flag)
	k := c.geo.FlagCells
	return slot[:k], slot[k]
}

// StampOOB is Program's stamp step on its own, behind the address and
// write-pointer checks, so TestChipMediaGolden's script can stamp pages
// apart from programming them — and try to stamp any address.
func (c *Chip) StampOOB(a PageAddr, m OOBMeta) error {
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
