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

// LazyState reports how much on-first-use state the chip has created:
// blocks holding a payload store, and flag-cell arena chunks.
func (c *Chip) LazyState() (payloadStores, flagChunks int) {
	for b := range c.blocks {
		if c.blocks[b].data != nil {
			payloadStores++
		}
	}
	return payloadStores, len(c.flagChunks)
}
