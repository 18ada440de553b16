package ftl

import (
	"fmt"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// The remount path: after a power loss every byte of controller RAM —
// mapping tables, status tables, lock queues, pending-erase lists — is
// gone. What survives is the media: per-block write pointers, the
// access-control flags (pAP/bAP), the page payloads, and the spare-area
// stamps committed writes carry (see blockio.Stamp). Restore rebuilds a
// working FTL from exactly that, then re-runs the sanitization policy
// over everything the crash left stale, so a remounted device upholds
// the same security contract as an uninterrupted one.

// PageScan is one physical page's surviving media state, as probed by
// the controller's boot-time scan. It is nand.PageProbe field for field,
// so the scan converts each probe whole.
type PageScan struct {
	// Programmed reports whether the block's write pointer passed the
	// page.
	Programmed bool
	// Locked reports whether the page is unreadable (pAP disabled, or
	// the block's bAP disabled).
	Locked bool
	// NonZero reports whether the readable payload holds at least one
	// nonzero byte (always false for locked pages).
	NonZero bool
	// Stamped reports a spare-area stamp, Stamp. A programmed, readable
	// page without one is a torn write: the pulse landed but the
	// controller never committed it.
	Stamped bool
	Stamp   blockio.Stamp
}

// BlockScan is one block's surviving media state.
type BlockScan struct {
	// WritePtr is the chip's append-only write pointer.
	WritePtr int
	// Locked reports a disabled bAP (bLock).
	Locked bool
}

// MediaScan is the whole-device boot scan Restore consumes: one entry
// per global block and per global physical page, in PPA order.
type MediaScan struct {
	Blocks []BlockScan
	Pages  []PageScan
}

// Restore rebuilds an FTL from a post-power-loss media scan and re-runs
// the recovery ladder. The rebuild rules:
//
//   - Locked pages and blocks are already sanitized: they become
//     invalid slots whose data is gone (only an erase reclaims them).
//   - Among the readable stamped copies of each logical page, the
//     highest write sequence wins and is restored live (secured or
//     valid per its stamp); every older copy is stale and goes back
//     through the sanitization policy.
//   - A programmed, readable, stamp-less page with a nonzero payload is
//     a torn write. The controller cannot know what it was, so it is
//     conservatively treated as stale secured data and sanitized. The
//     nonzero guard makes remount idempotent: a scrubbed or torn-then-
//     sanitized page reads as zeros and needs no second pass.
//   - Every partially-written block is sealed: the unwritten tail is
//     retired with the block rather than reopened as a write frontier
//     (real FTLs distrust a torn block's tail; the space returns at the
//     block's next erase).
//
// File annotations and per-block wear history kept only in RAM are
// lost; statistics restart from zero. If the FTL is traced, reattaching
// the pre-cut collector preserves audit continuity: physical page ids
// are stable across the crash, so T_insecure windows opened before the
// cut are closed by the destructions this recovery pass issues.
//
// Restore issues the policy's sanitize work (locks, relocations,
// erases) through the target starting at simulated time `at`, then
// parks every fully-stale block on the lazy-erase queue so the
// allocator has headroom even when the crash left no free block.
func Restore(cfg Config, target Target, policy Policy, scan MediaScan, at sim.Micros) (*FTL, error) {
	f, err := New(cfg, target, policy)
	if err != nil {
		return nil, err
	}
	if len(scan.Blocks) != f.geo.TotalBlocks() || len(scan.Pages) != f.geo.TotalPages() {
		return nil, fmt.Errorf("ftl: media scan shape %d/%d blocks, %d/%d pages",
			len(scan.Blocks), f.geo.TotalBlocks(), len(scan.Pages), f.geo.TotalPages())
	}
	f.reqClock = at
	f.reqStart = at

	// Winner election: the highest-sequence readable stamped copy of
	// each logical page is the live one.
	winner := make([]PPA, cfg.LogicalPages)
	for i := range winner {
		winner[i] = NoPPA
	}
	for i := range scan.Pages {
		ps := &scan.Pages[i]
		if !ps.Programmed || ps.Locked || !ps.Stamped {
			continue
		}
		if ps.Stamp.Seq > f.writeSeq {
			f.writeSeq = ps.Stamp.Seq
		}
		if ps.Stamp.LPA < 0 || ps.Stamp.LPA >= int64(cfg.LogicalPages) {
			// A corrupt stamp: demote to a torn write below.
			ps.Stamped = false
			continue
		}
		if cur := winner[ps.Stamp.LPA]; cur == NoPPA || scan.Pages[cur].Stamp.Seq < ps.Stamp.Seq {
			winner[ps.Stamp.LPA] = PPA(i)
		}
	}

	// Rebuild block occupancy: free lists, seals, and lock state. No
	// chip operations are issued in this pass.
	for c := range f.chips {
		cs := &f.chips[c]
		cs.free = cs.free[:0]
		for b := f.geo.BlocksPerChip - 1; b >= 0; b-- {
			block := c*f.geo.BlocksPerChip + b
			bs := scan.Blocks[block]
			if !bs.Locked && bs.WritePtr == 0 {
				cs.free = append(cs.free, block)
				continue
			}
			// Occupied: sealed at remount — full occupancy, no frontier.
			f.usedInBlock[block] = int32(f.geo.PagesPerBlock)
			f.lockedBlocks[block] = bs.Locked
		}
	}

	// Page dispositions. Statuses first (so BlockFullyStale and the GC
	// see a consistent table), policy routing after.
	type stale struct {
		p      PPA
		secure bool
	}
	var stales []stale
	for i := range scan.Pages {
		p := PPA(i)
		ps := scan.Pages[i]
		block := f.geo.BlockOf(p)
		bs := scan.Blocks[block]
		if !bs.Locked && bs.WritePtr == 0 {
			continue // free block, free page
		}
		switch {
		case bs.Locked || ps.Locked:
			// Already sanitized; the slot is dead until erase.
			f.setStatus(p, PageInvalid)
		case !ps.Programmed:
			// Sealed tail of a partially-written block.
			f.setStatus(p, PageInvalid)
		case ps.Stamped && winner[ps.Stamp.LPA] == p:
			f.l2p[ps.Stamp.LPA] = p
			f.p2l[p] = ps.Stamp.LPA
			if ps.Stamp.Secure {
				f.setStatus(p, PageSecured)
			} else {
				f.setStatus(p, PageValid)
			}
			f.liveInBlock[block]++
		case ps.Stamped:
			// Superseded generation: its invalidation predates the cut,
			// but the sanitize work may not have completed.
			stales = append(stales, stale{p, ps.Stamp.Secure})
		case ps.NonZero:
			// Torn write: readable residue with no commit record.
			stales = append(stales, stale{p, true})
		default:
			// Zero-filled residue (scrubbed page, sanitized torn write,
			// or a timing-only run's empty payload with no stamp):
			// nothing readable remains, no sanitize pass needed.
			f.setStatus(p, PageInvalid)
		}
	}

	// Route every stale copy back through the policy, then drain the
	// sanitize queues exactly like a host request does. Re-invalidating
	// a copy whose T_insecure window is already open is a no-op in the
	// audit ledger; torn writes were never registered and get adopted
	// as single-copy secrets.
	for _, s := range stales {
		f.noteInvalidated(s.p, s.secure, at)
		f.policy.Invalidate(f, s.p, s.secure)
	}
	f.settle(true)

	// Park fully-stale blocks (sealed garbage, bLocked blocks awaiting
	// erase) on the lazy-erase queue: a crash can leave a chip with no
	// free block at all, and the allocator erases from this queue
	// before it would otherwise wedge.
	for block := 0; block < f.geo.TotalBlocks(); block++ {
		cs := &f.chips[f.geo.ChipOfBlock(block)]
		if f.retired[block] || f.freeContains(cs, block) || f.pendingEraseContains(cs, block) {
			continue
		}
		if f.liveInBlock[block] == 0 && int(f.usedInBlock[block]) == f.geo.PagesPerBlock {
			cs.pendingErase = append(cs.pendingErase, block)
		}
	}
	return f, nil
}
