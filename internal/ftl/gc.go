package ftl

import (
	"repro/internal/audit"
	"repro/internal/trace"
)

// maybeGC runs garbage collection on the chip while its reusable-block
// count sits below the configured low-water mark.
func (f *FTL) maybeGC(chip int) {
	if f.inGC {
		return // relocations during GC must not recurse into GC
	}
	for f.reusableBlocks(chip) < f.cfg.GCFreeBlocksLow {
		if !f.gcOnce(chip) {
			return
		}
	}
}

// gcOnce collects one victim block on the chip. It returns false when no
// victim exists (every candidate is the active block or still erased).
//
// Flow (§2.2 + §6): pick the fully-written block with the fewest live
// pages, copy those pages out (each stale copy goes through the
// sanitization policy, which is where GC-triggered pLock/bLock comes
// from — Fig. 13 step 1 "copy"), flush the lock manager, then queue the
// block for lazy erase (§5.4: an erased block must not sit open).
func (f *FTL) gcOnce(chip int) bool {
	victim := f.pickVictim(chip)
	if victim < 0 {
		return false
	}
	f.stats.GCRuns++
	f.inGC = true
	gcStart := f.reqClock
	first := f.geo.FirstPPA(victim)
	f.relocate(first, first+PPA(f.geo.PagesPerBlock), NoPPA, audit.OriginGC)
	// Let the lock manager batch the secured stale copies: with the
	// whole victim now stale this is the prime bLock opportunity.
	eraseEpoch := f.eraseCount[victim]
	f.policy.Flush(f)
	f.inGC = false
	if f.traceOn {
		f.tracer.Op(trace.Event{
			Class: trace.OpGC, Start: gcStart, End: f.reqClock, Queued: gcStart,
			Chip: int16(chip), Channel: -1, Block: int32(victim), Page: -1, LPA: -1,
		})
	}

	// A sanitization policy may have erased the victim during Flush
	// (erSSD) — it is then on the free list, reopened as the active block,
	// or even fully refilled with live data and closed again. The erase
	// count is the reliable tell (the victim cannot acquire new data
	// without an erase first); requeueing after any of these would destroy
	// live pages or double-free the block.
	cs := &f.chips[chip]
	if f.eraseCount[victim] != eraseEpoch || f.retired[victim] ||
		f.usedInBlock[victim] == 0 || f.isActive(cs, victim) || f.freeContains(cs, victim) {
		return true
	}
	cs.pendingErase = append(cs.pendingErase, victim)
	return true
}

// pickVictim returns the next GC victim on the chip, or -1 when none
// qualifies. Only fully-written blocks are eligible: a partially written
// block is either active or about to be. The pick is greedy: the block
// with the fewest live pages.
func (f *FTL) pickVictim(chip int) int {
	cs := &f.chips[chip]
	begin := chip * f.geo.BlocksPerChip
	best, bestLive := -1, int32(1<<30)
	for b := begin; b < begin+f.geo.BlocksPerChip; b++ {
		if f.isActive(cs, b) || f.retired[b] ||
			int(f.usedInBlock[b]) != f.geo.PagesPerBlock ||
			f.pendingEraseContains(cs, b) {
			continue
		}
		if live := f.liveInBlock[b]; live < bestLive {
			best, bestLive = b, live
			if live == 0 {
				break
			}
		}
	}
	// A victim with every page live frees nothing; collecting it would
	// only burn endurance.
	if best >= 0 && int(bestLive) == f.geo.PagesPerBlock {
		return -1
	}
	return best
}

func (f *FTL) pendingEraseContains(cs *chipState, block int) bool {
	for _, b := range cs.pendingErase {
		if b == block {
			return true
		}
	}
	return false
}

func (f *FTL) freeContains(cs *chipState, block int) bool {
	for _, b := range cs.free {
		if b == block {
			return true
		}
	}
	return false
}
