package ftl

import (
	"repro/internal/audit"
	"repro/internal/sim"
)

// The lifecycle reporters. The audit ledger is only as complete as the
// FTL's reports of every copy, invalidation and destruction, so each
// transition has exactly one reporter, and the reporter is the only
// code that calls its Hooks field and emits its audit/trace record
// (secvet's auditcheck rejects either call anywhere else in this
// package). A path that reports at all therefore reports to both
// consumers, hook first.

// noteDestroyed reports that stale page p physically ceased to be
// readable: by cause, issued at dep and complete at at.
func (f *FTL) noteDestroyed(p PPA, cause audit.Cause, dep, at sim.Micros) {
	if f.hooks.Destroyed != nil {
		f.hooks.Destroyed(p, f.fileOf[p])
	}
	if f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindDestroy, Page: uint32(p), Src: audit.NoSrc,
			LPA: -1, Cause: cause, Dep: dep, At: at, Ladder: f.ladderDepth > 0})
	}
}

// noteInvalidated reports that live page p became stale at at; its data
// is still physically present.
func (f *FTL) noteInvalidated(p PPA, secured bool, at sim.Micros) {
	if f.hooks.Invalidated != nil {
		f.hooks.Invalidated(p, f.fileOf[p])
	}
	if f.traceOn {
		f.tracer.Invalidated(uint32(p), secured, at)
	}
}

// noteCopy reports a new physical copy at p of logical page lpa (-1 for
// a failed program's residue), made from src (audit.NoSrc for host data)
// at at. Only secured copies enter the audit ledger.
func (f *FTL) noteCopy(p PPA, src uint32, lpa int64, file uint64, secured bool, origin audit.Origin, at sim.Micros) {
	if f.hooks.Programmed != nil {
		f.hooks.Programmed(p, lpa, file)
	}
	if secured && f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindCopy, Page: uint32(p), Src: src,
			LPA: lpa, Origin: origin, At: at})
	}
}
