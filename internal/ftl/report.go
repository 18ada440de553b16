package ftl

import (
	"repro/internal/audit"
	"repro/internal/sim"
)

// The lifecycle reporters. Every consumer of page lifecycles (the audit
// ledger behind a trace.Recorder, the vertrace tracker) is only as
// complete as the FTL's reports of every copy, invalidation and
// destruction, so each transition has exactly one reporter, each
// reporter builds one audit.Event, and the configured Tracer is the only
// sink.

// noteDestroyed reports that stale page p physically ceased to be
// readable: by cause, issued at dep and complete at at.
func (f *FTL) noteDestroyed(p PPA, cause audit.Cause, dep, at sim.Micros) {
	if f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindDestroy, Page: uint32(p), Src: audit.NoSrc,
			LPA: -1, Cause: cause, Dep: dep, At: at, Ladder: f.ladderDepth > 0})
	}
}

// noteInvalidated reports that live page p became stale at at; its data
// is still physically present.
func (f *FTL) noteInvalidated(p PPA, secured bool, at sim.Micros) {
	if f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindInvalidate, Secured: secured, Page: uint32(p),
			Src: audit.NoSrc, LPA: -1, File: f.fileOf[p], At: at})
	}
}

// noteCopy reports a new physical copy at p of logical page lpa (-1 for
// a failed program's residue), made from src (audit.NoSrc for host data)
// at at.
func (f *FTL) noteCopy(p PPA, src uint32, lpa int64, file uint64, secured bool, origin audit.Origin, at sim.Micros) {
	if f.traceOn {
		f.tracer.Audit(audit.Event{Kind: audit.KindCopy, Secured: secured, Page: uint32(p), Src: src,
			LPA: lpa, File: file, Origin: origin, At: at})
	}
}
