// Package auditftl exercises the auditcheck analyzer: lifecycle reports
// made around the three reporters, and the PR 6 regression shape
// (subset-only destruction reporting after a block-wide bLock) — next
// to the real code's reporter idiom. The package clause says ftl because
// auditcheck scopes by package name.
package ftl

import (
	"audit"
	"trace"
)

// PPA is a physical page address.
type PPA int32

// Hooks mirrors the real FTL lifecycle hook bundle auditcheck keys on.
type Hooks struct {
	Programmed  func(p PPA, lpa int64, file uint64)
	Invalidated func(p PPA, file uint64)
	Destroyed   func(p PPA, file uint64)
}

// Target is the device command surface.
type Target interface {
	PLock(p PPA, at int64) (int64, error)
	BLock(block int, at int64) (int64, error)
}

// FTL is the fixture translation layer.
type FTL struct {
	hooks    Hooks
	tracer   *trace.Collector
	traceOn  bool
	target   Target
	status   []int
	fileOf   []uint64
	reqStart int64
}

const pageStale = 1

// --- the reporters: the only place a hook or emitter may be called ---

func (f *FTL) noteDestroyed(p PPA, cause audit.Cause, at int64) {
	if f.hooks.Destroyed != nil {
		f.hooks.Destroyed(p, f.fileOf[p])
	}
	if f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindDestroy, Page: uint32(p), Cause: cause, At: at})
	}
}

func (f *FTL) noteInvalidated(p PPA, secured bool, at int64) {
	if f.hooks.Invalidated != nil {
		f.hooks.Invalidated(p, f.fileOf[p])
	}
	if f.traceOn {
		f.tracer.Invalidated(uint32(p), secured, at)
	}
}

func (f *FTL) noteCopy(p PPA, lpa int64, secured bool) {
	if f.hooks.Programmed != nil {
		f.hooks.Programmed(p, lpa, f.fileOf[p])
	}
	if secured && f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindCopy, Page: uint32(p), LPA: lpa, Src: audit.NoSrc})
	}
}

// --- violations -------------------------------------------------------

// destroyHookOnly fires the hook itself and never tells the ledger.
func (f *FTL) destroyHookOnly(p PPA) {
	if f.hooks.Destroyed != nil {
		f.hooks.Destroyed(p, f.fileOf[p]) // want `auditcheck: hooks.Destroyed called outside noteDestroyed/noteInvalidated/noteCopy`
	}
}

// destroyLedgerOnly tells the ledger itself and never fires the hook.
func (f *FTL) destroyLedgerOnly(p PPA) {
	if f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindDestroy, Page: uint32(p)}) // want `auditcheck: tracer.Audit called outside noteDestroyed/noteInvalidated/noteCopy`
	}
}

// invalidateByHand pairs both halves correctly — and is still a second
// copy of noteInvalidated to keep in step.
func (f *FTL) invalidateByHand(p PPA) {
	if f.hooks.Invalidated != nil {
		f.hooks.Invalidated(p, f.fileOf[p]) // want `auditcheck: hooks.Invalidated called outside`
	}
	if f.traceOn {
		f.tracer.Invalidated(uint32(p), true, f.reqStart) // want `auditcheck: tracer.Invalidated called outside`
	}
}

// issueBLockSubset is the PR 6 bug shape: after the block-wide bLock,
// destruction is reported only for the pended subset handed in by the
// caller.
func (f *FTL) issueBLockSubset(block int, pages []PPA) error {
	stale := pages[:0]
	for _, p := range pages {
		if f.status[p] == pageStale {
			stale = append(stale, p)
		}
	}
	done, err := f.target.BLock(block, f.reqStart)
	if err != nil {
		return err
	}
	for _, p := range stale { // want `auditcheck: destruction after a block-wide bLock is reported only for the pended subset`
		f.noteDestroyed(p, audit.CauseBLock, done)
	}
	return nil
}

// --- legitimate idioms: none of these may be reported -----------------

// commitWrite reports the new copy through its reporter; other trace
// traffic (events, gauges) is not lifecycle reporting.
func (f *FTL) commitWrite(p PPA, lpa int64, secure bool) {
	f.noteCopy(p, lpa, secure)
	if f.traceOn {
		f.tracer.Event("program", uint32(p))
	}
}

// issuePLock is the single-page sanitize path.
func (f *FTL) issuePLock(p PPA) error {
	done, err := f.target.PLock(p, f.reqStart)
	if err != nil {
		return err
	}
	f.noteInvalidated(p, true, f.reqStart)
	f.noteDestroyed(p, audit.CausePLock, done)
	return nil
}

// issueBLockBlockwide is the fixed PR 6 shape: delegate to a span
// iterator instead of the caller's subset.
func (f *FTL) issueBLockBlockwide(block int, pages []PPA) error {
	_ = pages
	done, err := f.target.BLock(block, f.reqStart)
	if err != nil {
		return err
	}
	f.destroyStale(block, done)
	return nil
}

// destroyStale iterates the block's page span, not a caller-provided
// subset, and closes each audit window.
func (f *FTL) destroyStale(block int, done int64) {
	for i := 0; i < 4; i++ {
		p := PPA(block*4 + i)
		if f.status[p] != pageStale {
			continue
		}
		f.noteDestroyed(p, audit.CauseBLock, done)
	}
}
