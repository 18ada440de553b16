// Package sanitize implements the five device configurations the paper's
// system-level evaluation (§7) compares:
//
//	Baseline      — no sanitization: invalid data lingers until GC erase.
//	ErSSD         — erase-based (§8): invalidating a secured page forces
//	                the whole block to be evacuated and erased at once.
//	ScrSSD        — scrubbing (§4/§8): the page's wordline siblings are
//	                relocated, then the page is destroyed in place.
//	SecSSDNoBLock — Evanesco with pLock only.
//	SecSSD        — full Evanesco: the lock manager batches pLocks into a
//	                bLock when an entire block becomes stale and the
//	                estimated pLock latency exceeds tbLock (§6).
//
// All policies uphold the same contract for secured data: after the
// invalidation (plus the request-level Flush), the stale copy is no
// longer readable. Only Baseline leaves stale data exposed.
package sanitize

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/nand"
)

// Policies returns fresh instances of the five §7 configurations in
// Fig. 14 order, the baseline (the normalization target and the attack
// matrix's control) first. It is the only enumeration of them: every
// by-name lookup and every figure's column order derives from it.
func Policies() []ftl.Policy {
	return []ftl.Policy{Baseline(), ErSSD(), ScrSSD(), SecSSDNoBLock(), SecSSD()}
}

// ByName resolves one of the Policies by its Name.
func ByName(name string) (ftl.Policy, error) {
	all := Policies()
	for _, p := range all {
		if p.Name() == name {
			return p, nil
		}
	}
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name()
	}
	return nil, fmt.Errorf("sanitize: unknown policy %q (want one of %v)", name, names)
}

// Baseline returns the no-sanitization policy (the normalization target
// of Fig. 14).
func Baseline() ftl.Policy { return baseline{} }

type baseline struct{}

func (baseline) Name() string { return "baseline" }

func (baseline) Invalidate(f *ftl.FTL, p ftl.PPA, secured bool) {
	// Old data stays physically present until GC erases the block — the
	// data versioning problem of §3.
	f.MarkInvalid(p)
}

func (baseline) Flush(*ftl.FTL) {}

// ErSSD returns the erase-based sanitization policy.
func ErSSD() ftl.Policy { return erSSD{} }

type erSSD struct{}

func (erSSD) Name() string { return "erSSD" }

func (e erSSD) Invalidate(f *ftl.FTL, p ftl.PPA, secured bool) {
	f.MarkInvalid(p)
	if secured {
		// Queue the block; the erase lands at Flush so a multi-page trim
		// of one block costs a single evacuation + erase rather than a
		// cascade (the request still completes only after the erase —
		// sanitization stays immediate).
		f.PendSanitize(p)
	}
}

func (e erSSD) Flush(f *ftl.FTL) {
	pending := f.DrainPending()
	for _, pb := range pending {
		// The block may already have been erased (GC, or a reentrant
		// flush from a relocation-triggered GC); skip unless some queued
		// page still holds stale data.
		if !anyStillInvalid(f, pb.Pages) {
			continue
		}
		// Every live page must first be copied elsewhere (the paper's
		// footnote assumes erSSD may erase immediately without
		// open-interval penalties).
		f.RelocateLive(pb.Block)
		// The relocations may have triggered GC, whose flush re-runs this
		// ladder on the same block (GC re-pends the secured stale copies it
		// routes through Invalidate): the block may already be erased — or
		// even reopened and refilled with new writes. Erase only if the
		// queued stale data still exists and no live data moved in.
		if !anyStillInvalid(f, pb.Pages) || f.LiveInBlock(pb.Block) > 0 {
			continue
		}
		f.EraseNow(pb.Block)
	}
	f.ReleasePending(pending)
}

func anyStillInvalid(f *ftl.FTL, pages []ftl.PPA) bool {
	for _, p := range pages {
		if f.Status(p) == ftl.PageInvalid {
			return true
		}
	}
	return false
}

// ScrSSD returns the scrubbing-based sanitization policy.
func ScrSSD() ftl.Policy { return scrSSD{} }

type scrSSD struct{}

func (scrSSD) Name() string { return "scrSSD" }

func (s scrSSD) Invalidate(f *ftl.FTL, p ftl.PPA, secured bool) {
	f.MarkInvalid(p)
	if secured {
		f.PendSanitize(p)
	}
}

func (s scrSSD) Flush(f *ftl.FTL) {
	// A block queues at most a handful of wordlines per flush, so the
	// dedupe list normally stays in this stack array.
	var wlBuf [16]ftl.PPA
	seenWL := wlBuf[:0]
	pending := f.DrainPending()
	for _, pb := range pending {
		// Group the block's queued pages by wordline: one scrub per WL,
		// relocating the WL's still-live siblings first (two extra reads
		// + two extra writes in the worst case, §4). A linear scan over
		// the seen list beats a map here: a block queues at most a
		// handful of wordlines per flush.
		seenWL = seenWL[:0]
		for _, p := range pb.Pages {
			wl := f.Geometry().WLStart(p)
			dup := false
			for _, w := range seenWL {
				if w == wl {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seenWL = append(seenWL, wl)
			if f.Status(p) != ftl.PageInvalid {
				continue // already destroyed by an erase
			}
			f.RelocateWLSiblings(p)
			// The sibling relocations may have triggered GC, whose flush can
			// scrub or erase this wordline first — and the block may even have
			// been refilled since. Scrub only if the stale copy still exists.
			if f.Status(p) != ftl.PageInvalid {
				continue
			}
			f.IssueScrub(p)
		}
	}
	f.ReleasePending(pending)
}

// SecSSDNoBLock returns Evanesco without block-level locking, the
// secSSD_nobLock configuration used to isolate bLock's contribution.
func SecSSDNoBLock() ftl.Policy { return secSSD{useBLock: false} }

// SecSSD returns the full Evanesco policy with the §6 lock manager.
func SecSSD() ftl.Policy { return secSSD{useBLock: true} }

type secSSD struct {
	useBLock bool
}

func (s secSSD) Name() string {
	if s.useBLock {
		return "secSSD"
	}
	return "secSSD_nobLock"
}

func (s secSSD) Invalidate(f *ftl.FTL, p ftl.PPA, secured bool) {
	if !secured {
		f.MarkInvalid(p)
		return
	}
	// Mark invalid right away so GC never mistakes the page for live
	// data, then queue it for the lock manager; the lock lands at Flush,
	// which runs before the host request completes — sanitization stays
	// immediate from the host's perspective. (If GC erases the block
	// first, the erase itself sanitizes and drops the pending entry.)
	f.MarkInvalid(p)
	f.PendSanitize(p)
}

func (s secSSD) Flush(f *ftl.FTL) {
	pending := f.DrainPending()
	if len(pending) == 0 {
		return
	}
	t := nand.DefaultTiming()
	for _, pb := range pending {
		// §6 decision rule: bLock when 1) every remaining page of the
		// block is stale and 2) locking the queued pages would take
		// longer than one bLock. With wordline batching the pLock cost
		// is one pulse per distinct wordline, not per page, which is why
		// batched devices escalate to bLock less often.
		estPLock := int64(f.LockPulses(pb.Pages)) * int64(t.PLock)
		if s.useBLock && f.BlockFullyStale(pb.Block) && estPLock > int64(t.BLock) {
			f.IssueBLock(pb.Block, pb.Pages)
			continue
		}
		for _, p := range pb.Pages {
			f.LockPage(p)
		}
	}
	f.ReleasePending(pending)
}
