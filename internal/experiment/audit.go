package experiment

// Sanitization audit sweep: the per-secret provenance ledger's
// phase-attributed T_insecure accounting across the amortization
// ablation ladder, feeding the `reproduce -fig tinsec` figure.

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/ftl"
	"repro/internal/parallel"
	"repro/internal/sanitize"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AuditCell is one ablation cell's sanitization audit: the Mobile
// workload on the secSSD device with the cell's feature set, plus the
// audit ledger's window/phase accounting and end-of-run verification.
type AuditCell struct {
	// Label names the feature set (see BatchingCells).
	Label string
	Run   Run
	// Audit is the ledger's counter snapshot at the run's horizon.
	Audit audit.Stats
	// Verify is the end-of-run audit: zero live unlocked secured copies
	// and phase sums matching every closed window.
	Verify audit.VerifyReport
	// Unattributed busy time (out-of-range chip/channel coordinates).
	UnattributedBusyUs int64
	UnattributedEvents uint64
}

// AuditSweep runs the BatchingCells ladder with a trace.Recorder on
// every cell and captures the audit ledger's accounting. Deferred lock
// batches are drained (FlushLocks) before the ledger is read, so a
// clean device ends every cell with zero open windows. Each cell is an
// independent seeded simulation and the ledger's counters are built
// incrementally in event order, so the result — every counter and
// phase sum — is bit-identical for any worker count.
func AuditSweep(sc Scale, workers int) ([]AuditCell, error) {
	cells := BatchingCells()
	prof := workload.Mobile()
	h := newHandover(workers)
	out, err := parallel.Map(workers, len(cells), func(i int) (AuditCell, error) {
		cs := sc
		cs.Planes = cells[i].Planes
		cs.NoCachePipeline = cells[i].NoCachePipeline
		cs.LockBatch = cells[i].LockBatch
		rec := cs.recorder()
		run, err := execute(prof, sanitize.SecSSD(), 1.0, cs, rec, true, h)
		if err != nil {
			return AuditCell{}, fmt.Errorf("audit/%s: %w", cells[i].Label, err)
		}
		busy, events := rec.Unattributed()
		return AuditCell{
			Label:              cells[i].Label,
			Run:                run,
			Audit:              rec.AuditLedger().Stats(rec.Horizon()),
			Verify:             rec.AuditLedger().Verify(rec.Horizon()),
			UnattributedBusyUs: int64(busy),
			UnattributedEvents: events,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteAudited is ExecuteTraced plus an end-of-run lock drain: with a
// positive batching deadline or fault-delayed retries, queued pLocks can
// survive the last host request, and the ledger would report their
// windows as still open. Use this variant whenever the recorder's audit
// ledger will be verified afterwards.
func ExecuteAudited(prof workload.Profile, policy ftl.Policy, secureFraction float64, sc Scale, rec *trace.Recorder) (Run, error) {
	return execute(prof, policy, secureFraction, sc, rec, true, nil)
}
