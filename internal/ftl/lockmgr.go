package ftl

// Wordline-aware pLock batching (§5 of the paper). SBPI programs the
// selected flag cells of one wordline in a single tpLock pulse, so
// several stale pages sharing a wordline can be locked for the price of
// one. The lock manager queues pending pLocks per wordline and issues a
// batched pulse when the wordline's group is complete, when the queue
// crosses a size threshold, or when the oldest group's age crosses the
// configured deadline — which is what bounds T_insecure in deferred
// mode.

import (
	"repro/internal/audit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lockGroup is one wordline's queued pLocks.
type lockGroup struct {
	block    int
	wl       int        // device-global wordline index
	queuedAt sim.Micros // when the first page joined (deadline anchor)
	pages    []PPA      // nil once detached (issued or compacted away)
}

// lockQueue is the lock manager's coalescing state. Flat arrays indexed
// by device wordline / page keep the hot path free of map operations.
type lockQueue struct {
	groups   []lockGroup
	groupIdx []int32 // per device WL: position+1 into groups, 0 = none
	pending  []bool  // per PPA: queued and not yet issued or cancelled
	count    int     // queued pages (pending bits set)
	attached int     // groups whose pages slice is still attached
	pagePool [][]PPA // recycled page slices
}

func (q *lockQueue) takePages(capHint int) []PPA {
	if n := len(q.pagePool); n > 0 {
		s := q.pagePool[n-1][:0]
		q.pagePool[n-1] = nil
		q.pagePool = q.pagePool[:n-1]
		return s
	}
	return make([]PPA, 0, capHint)
}

func (q *lockQueue) recycle(pages []PPA) {
	if cap(pages) > 0 {
		q.pagePool = append(q.pagePool, pages[:0])
	}
}

// LockPage routes one stale secured page to the lock manager. With
// batching disabled it degenerates to an immediate per-page pLock;
// otherwise the page joins its wordline's group and is locked by a
// batched SBPI pulse at the next flush point.
func (f *FTL) LockPage(p PPA) {
	if !f.cfg.LockBatch.Enabled {
		f.IssuePLock(p)
		return
	}
	block := f.geo.BlockOf(p)
	if f.lockedBlocks[block] || f.retired[block] || f.status[p] != PageInvalid {
		// Same guards as IssuePLock: the stale copy is already gone.
		return
	}
	q := &f.lockq
	if q.pending[p] {
		return
	}
	wl := f.geo.WLIndex(p)
	gi := int(q.groupIdx[wl]) - 1
	if gi < 0 || q.groups[gi].pages == nil {
		q.groups = append(q.groups, lockGroup{
			block:    block,
			wl:       wl,
			queuedAt: f.reqStart,
			pages:    q.takePages(f.geo.PagesPerWL),
		})
		gi = len(q.groups) - 1
		q.groupIdx[wl] = int32(gi + 1)
		q.attached++
	}
	q.pending[p] = true
	q.count++
	q.groups[gi].pages = append(q.groups[gi].pages, p)
	if len(q.groups[gi].pages) == f.geo.PagesPerWL {
		// The wordline cannot gain more stale pages: pulse it now.
		f.issueLockGroup(gi)
		return
	}
	if f.cfg.LockBatch.Threshold > 0 && q.count >= f.cfg.LockBatch.Threshold {
		f.FlushLocks()
	}
}

// issueLockGroup detaches and issues one wordline group, reporting
// whether any chip command was sent. The group is detached from the
// queue BEFORE anything is issued: a failed pulse escalates through
// relocation and GC, whose policy flush can reenter the lock manager
// and grow/compact q.groups under us.
func (f *FTL) issueLockGroup(gi int) bool {
	q := &f.lockq
	g := q.groups[gi]
	pages := g.pages
	if pages == nil {
		return false
	}
	q.groups[gi].pages = nil
	if int(q.groupIdx[g.wl])-1 == gi {
		q.groupIdx[g.wl] = 0
	}
	q.attached--

	// Consume the pending bits and refilter: cancellations (erase,
	// retirement) cleared bits, and reentrant activity may have destroyed
	// some stale copies since they queued.
	live := pages[:0]
	for _, p := range pages {
		if !q.pending[p] {
			continue
		}
		q.pending[p] = false
		q.count--
		if f.status[p] == PageInvalid {
			live = append(live, p)
		}
	}
	if len(live) == 0 || f.lockedBlocks[g.block] || f.retired[g.block] {
		q.recycle(pages)
		return false
	}
	if len(live) == 1 {
		// A batch of one gains nothing; use the plain one-shot.
		p := live[0]
		q.recycle(pages)
		f.IssuePLock(p)
		return true
	}
	f.stats.PLockBatches++
	f.stats.PLockBatchedPages += uint64(len(live))
	wlInBlock := g.wl - f.geo.WLIndex(f.geo.FirstPPA(g.block))
	done, err := f.target.PLockWL(g.block, wlInBlock, live, f.reqStart)
	if err != nil {
		// The failed pulse left every flag cell unprogrammed (the per-WL
		// program opportunity is NOT spent page by page), so per-page
		// one-shot retries are legitimate; their own failures walk the
		// regular escalation ladder.
		f.stats.PLockBatchFailures++
		f.markFault(trace.OpPLockBatchFail, g.block, wlInBlock, done)
		for _, p := range live {
			f.IssuePLock(p)
		}
		q.recycle(pages)
		return true
	}
	for _, p := range live {
		f.noteDestroyed(p, audit.CausePLockBatch, f.reqStart, done)
	}
	q.recycle(pages)
	return true
}

// FlushLocks force-drains the batching queue, pulsing every attached
// wordline group regardless of age. It reports whether any chip command
// was issued. Groups appended reentrantly during the drain (escalation →
// GC → policy flush → LockPage) are drained too: the loop re-evaluates
// len(q.groups) each iteration.
func (f *FTL) FlushLocks() bool {
	if !f.cfg.LockBatch.Enabled {
		return false
	}
	issued := false
	q := &f.lockq
	for gi := 0; gi < len(q.groups); gi++ {
		if f.issueLockGroup(gi) {
			issued = true
		}
	}
	f.compactLockGroups()
	return issued
}

// flushDueLocks pulses only the groups whose age reached the configured
// deadline, reporting whether any chip command was issued. With a
// positive Deadline incomplete groups may ride across requests to gather
// more wordline siblings; with Deadline 0 no group outlives the request
// that queued it, so every attached group is due, as in FlushLocks.
func (f *FTL) flushDueLocks() bool {
	issued := false
	q := &f.lockq
	deadline := f.cfg.LockBatch.Deadline
	for gi := 0; gi < len(q.groups); gi++ {
		if q.groups[gi].pages == nil || f.reqStart-q.groups[gi].queuedAt < deadline {
			continue
		}
		if f.issueLockGroup(gi) {
			issued = true
		}
	}
	f.compactLockGroups()
	return issued
}

// compactLockGroups drops detached group slots, keeping groupIdx
// consistent, so the groups slice never accumulates dead entries across
// requests in deferred mode.
func (f *FTL) compactLockGroups() {
	q := &f.lockq
	if q.attached == len(q.groups) {
		return
	}
	w := 0
	for gi := range q.groups {
		if q.groups[gi].pages == nil {
			continue
		}
		q.groups[w] = q.groups[gi]
		q.groupIdx[q.groups[w].wl] = int32(w + 1)
		w++
	}
	for gi := w; gi < len(q.groups); gi++ {
		q.groups[gi] = lockGroup{}
	}
	q.groups = q.groups[:w]
}

// cancelQueuedLocks drops a block's queued pLocks (its stale copies were
// just destroyed by an erase or retirement). Group slots for the block
// stay in the queue; their cancelled pages are skipped at issue time.
func (f *FTL) cancelQueuedLocks(block int) {
	q := &f.lockq
	if !f.cfg.LockBatch.Enabled || q.count == 0 {
		return
	}
	first := f.geo.FirstPPA(block)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		if p := first + PPA(i); q.pending[p] {
			q.pending[p] = false
			q.count--
		}
	}
}

// LockPulses estimates how many tpLock pulses locking these pages will
// cost under the current batching mode: the pLock side of the §6
// decision rule (bLock the block when pulses × tpLock > tbLock). The
// pages must belong to one block. Without batching every page is its
// own pulse; with batching each distinct wordline is one pulse.
func (f *FTL) LockPulses(pages []PPA) int {
	if !f.cfg.LockBatch.Enabled {
		return len(pages)
	}
	f.wlGen++
	pulses := 0
	for _, p := range pages {
		wl := f.geo.WLIndex(p)
		if f.wlMark[wl] != f.wlGen {
			f.wlMark[wl] = f.wlGen
			pulses++
		}
	}
	return pulses
}
