package ftl

// PageStatusCounts returns the device-wide page population per status
// (retired pages are reported separately by RetiredPages).
func (f *FTL) PageStatusCounts() (free, valid, secured, invalid int64) {
	return f.statusCount[PageFree], f.statusCount[PageValid],
		f.statusCount[PageSecured], f.statusCount[PageInvalid]
}

// RetiredPages returns the page population of retired blocks.
func (f *FTL) RetiredPages() int64 { return f.statusCount[PageRetired] }

// BlockRetired reports whether a block has been pulled from rotation.
func (f *FTL) BlockRetired(block int) bool { return f.retired[block] }

// BlockLocked reports whether a block is currently bLocked.
func (f *FTL) BlockLocked(block int) bool { return f.lockedBlocks[block] }

// LockQueueLen reports how many pages are waiting in the batching queue.
func (f *FTL) LockQueueLen() int { return f.lockq.count }

// PPAOf composes a physical page address.
func (r *resolver) PPAOf(chip, blockInChip, page int) PPA {
	block := uint32(chip)*r.blocksPerChip.d + uint32(blockInChip)
	return PPA(block*r.pagesPerBlock.d + uint32(page))
}
