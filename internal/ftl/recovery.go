package ftl

// Fault recovery: what the FTL does when a chip operation reports
// failure (see internal/fault and the Target contract in ftl.go).
//
// The escalation ladder never leaves a secured page readable:
//
//	program fail → quarantine the consumed page (it holds a partial,
//	               possibly readable payload) + retry on a fresh page
//	pLock fail   → escalate to a bLock of the whole block
//	bLock fail   → forced copy-out + immediate erase
//	erase fail   → retire the block, scrubbing stale wordlines in place
//	               first (the in-place Vth merge cannot fail)

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxProgramAttempts bounds the fresh-page retry loops. Reaching it
// means the injected failure probability is near 1 — a configuration
// error, not a plausible device state.
const maxProgramAttempts = 16

// markFault emits a zero-width marker event for a recovered fault. The
// chip occupancy of the failed operation is carried by its regular
// event (the recorder excludes these classes from busy time).
func (f *FTL) markFault(class trace.OpClass, block, page int, at sim.Micros) {
	if !f.traceOn {
		return
	}
	f.tracer.Op(trace.Event{
		Class: class, Start: at, End: at, Queued: at,
		Chip: int16(f.geo.ChipOfBlock(block)), Channel: -1, Block: int32(block), Page: int32(page), LPA: -1,
	})
}

// quarantineFailedProgram accounts a page consumed by a failed program.
// The chip's write pointer advanced and a partial copy of the payload
// may be readable on the wordline, so the page is treated as
// written-and-immediately-stale and routed through the sanitization
// policy like any other invalidation: the usual pLock/bLock machinery
// destroys the residue before the request completes.
func (f *FTL) quarantineFailedProgram(p PPA, secure bool, file uint64, at sim.Micros) {
	f.stats.ProgramFailures++
	f.markFault(trace.OpProgramFail, f.geo.BlockOf(p), f.geo.PageInBlock(p), at)
	if f.traceOn {
		f.fileOf[p] = file
	}
	f.noteCopy(p, audit.NoSrc, -1, file, secure, audit.OriginQuarantine, at)
	f.noteInvalidated(p, secure, at)
	f.policy.Invalidate(f, p, secure)
}

// escalateToBLock handles a pLock failure: the flag cells' one-shot
// program opportunity is spent, so the page can only be sanitized by
// locking (or erasing) the whole block. Live pages are relocated out
// first; if the bLock itself fails the ladder continues with a forced
// erase.
func (f *FTL) escalateToBLock(block int) {
	f.stats.LockEscalations++
	f.ladderDepth++
	defer func() { f.ladderDepth-- }()
	// The block will be unprogrammable once locked: consume its
	// unwritten tail and close it if it is the chip's active block, so
	// the relocations below (and all later writes) land elsewhere.
	f.sealBlock(block)
	f.RelocateLive(block)
	// The relocations may have triggered GC, whose flush can run the
	// ladder on this very block (its stale pages were pended too): a
	// competing bLock may already have disabled it, or a bLock failure
	// may have erased it — freeing the block and destroying the stale
	// data, possibly even refilling it with new writes. Only lock if the
	// block is still fully stale.
	if f.lockedBlocks[block] || f.retired[block] || !f.BlockFullyStale(block) {
		return
	}
	f.lockBlock(block)
}

// recoveryErase destroys a block whose locks could not be programmed.
// EraseNow covers both outcomes: a successful erase frees the block, a
// failed one retires it (with the scrub backstop).
func (f *FTL) recoveryErase(block int) {
	f.stats.RecoveryErases++
	f.ladderDepth++
	defer func() { f.ladderDepth-- }()
	f.EraseNow(block)
}

// retireBlock pulls a block from rotation after a failed erase. The
// erase destroyed nothing, so every written wordline is first scrubbed
// in place — the one infallible destruction primitive — guaranteeing no
// stale byte outlives retirement even if the block's locks had failed
// too. Retired pages never return to the allocator.
func (f *FTL) retireBlock(block int, at sim.Micros) {
	if f.retired[block] {
		return
	}
	f.ladderDepth++
	defer func() { f.ladderDepth-- }()
	first := f.geo.FirstPPA(block)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		if f.status[first+PPA(i)].Live() {
			panic(fmt.Sprintf("ftl: retiring block %d with live page %d", block, first+PPA(i)))
		}
	}
	f.retired[block] = true
	f.stats.RetiredBlocks++

	// Scrub before sealing, while PageFree still identifies wordlines
	// that were never written (nothing to destroy there).
	for wlStart := 0; wlStart < f.geo.PagesPerBlock; wlStart += f.geo.PagesPerWL {
		written := false
		for s := 0; s < f.geo.PagesPerWL; s++ {
			if f.status[first+PPA(wlStart+s)] != PageFree {
				written = true
				break
			}
		}
		if !written {
			continue
		}
		f.stats.Scrubs++
		f.stats.BackstopScrubs++
		done := f.target.Scrub(first+PPA(wlStart), f.reqClock)
		if done > f.reqClock {
			f.reqClock = done
		}
		at = done
	}
	f.destroyStale(block, at, audit.CauseScrub, at)
	f.sealBlock(block)

	for i := 0; i < f.geo.PagesPerBlock; i++ {
		p := first + PPA(i)
		f.setStatus(p, PageRetired)
		f.p2l[p] = -1
	}
	if f.traceOn {
		clear(f.fileOf[first : first+PPA(f.geo.PagesPerBlock)])
	}
	f.liveInBlock[block] = 0
	f.usedInBlock[block] = int32(f.geo.PagesPerBlock)
	f.clearPending(block)
	f.cancelQueuedLocks(block)

	// Pull the block from the allocator's rotation entirely.
	cs := &f.chips[f.geo.ChipOfBlock(block)]
	for i, b := range cs.free {
		if b == block {
			cs.free = append(cs.free[:i], cs.free[i+1:]...)
			break
		}
	}
	for i, b := range cs.pendingErase {
		if b == block {
			cs.pendingErase = append(cs.pendingErase[:i], cs.pendingErase[i+1:]...)
			break
		}
	}

	f.markFault(trace.OpRetire, block, -1, at)
	if f.traceOn {
		f.tracer.Gauge(trace.GaugeRetiredBlocks, at, float64(f.stats.RetiredBlocks))
	}
}

// sealBlock consumes a block's unwritten tail so the allocator never
// programs it again: required before a bLock (programs to a locked
// block are rejected by the chip) and before retirement.
func (f *FTL) sealBlock(block int) {
	cs := &f.chips[f.geo.ChipOfBlock(block)]
	if pl := f.geo.PlaneOfBlock(block); cs.active[pl] == block {
		cs.active[pl] = -1
		cs.frontier[pl] = 0
	}
	first := f.geo.FirstPPA(block)
	sealed := int32(0)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		p := first + PPA(i)
		if f.status[p] == PageFree {
			f.setStatus(p, PageInvalid)
			sealed++
		}
	}
	f.usedInBlock[block] += sealed
}

// destroyStale fires the destruction hooks for every stale page of a
// block after a whole-block destruction (bLock or backstop scrub), and
// does nothing on an untraced run, where the hooks report to no one. Both
// the recorder and the audit ledger tolerate a later erase firing a
// destruction again for the same pages.
func (f *FTL) destroyStale(block int, done sim.Micros, cause audit.Cause, dep sim.Micros) {
	if !f.traceOn {
		return
	}
	first := f.geo.FirstPPA(block)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		p := first + PPA(i)
		if f.status[p] != PageInvalid {
			continue
		}
		f.noteDestroyed(p, cause, dep, done)
	}
}
