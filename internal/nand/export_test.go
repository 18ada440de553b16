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
