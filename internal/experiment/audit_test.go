package experiment

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/sanitize"
	"repro/internal/trace"
	"repro/internal/workload"
)

// phaseSum totals an audit phase breakdown.
func phaseSum(b audit.PhaseBreakdown) int64 {
	return b.QueueWait + b.BatchWait + b.Reopen + b.Pulse + b.Ladder
}

// TestAuditSweepWorkerInvariance is the golden determinism test: every
// ledger counter and phase sum must be bit-identical whether the
// ablation ladder runs serially or fanned over 4 workers — with lock
// batching both off ("disabled"/"pipelined") and on ("batched").
func TestAuditSweepWorkerInvariance(t *testing.T) {
	sc := SmallScale()
	sc.StudyPages = 3000
	serial, err := AuditSweep(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := AuditSweep(sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("audit sweep differs by worker count:\nserial: %+v\nfanned: %+v", serial, fanned)
	}

	// The sweep hands each cell's device on to the next; every cell must
	// still be the run ExecuteAudited makes on a device of its own.
	for i, bc := range BatchingCells() {
		cs := sc
		cs.Planes, cs.NoCachePipeline, cs.LockBatch = bc.Planes, bc.NoCachePipeline, bc.LockBatch
		rec := trace.NewRecorder(trace.RecorderConfig{Chips: Channels * ChipsPerChannel, Channels: Channels})
		run, err := ExecuteAudited(workload.Mobile(), sanitize.SecSSD(), 1.0, cs, rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.AuditLedger().Stats(rec.Horizon()); !reflect.DeepEqual(serial[i].Run, run) || !reflect.DeepEqual(serial[i].Audit, got) {
			t.Errorf("%s: sweep cell differs from ExecuteAudited on its own device:\nsweep: %+v %+v\nalone: %+v %+v",
				bc.Label, serial[i].Run, serial[i].Audit, run, got)
		}
	}

	labels := map[string]bool{}
	for _, cell := range serial {
		labels[cell.Label] = true
		if cell.Audit.Windows == 0 {
			t.Errorf("%s: no closed windows", cell.Label)
		}
		// The invariant the ledger unit tests check per window, asserted
		// here over a whole simulated device: phases sum to the windows.
		if got, want := phaseSum(cell.Audit.Phases), cell.Audit.WindowSumUs; got != want {
			t.Errorf("%s: phase sum %d != window sum %d", cell.Label, got, want)
		}
		if !cell.Verify.Clean() {
			t.Errorf("%s: verifier found %d live unlocked copies: %v",
				cell.Label, cell.Verify.ExposedCopies, cell.Verify.Err())
		}
		if cell.UnattributedEvents != 0 {
			t.Errorf("%s: %d events with out-of-range coordinates", cell.Label, cell.UnattributedEvents)
		}
	}
	for _, want := range []string{"disabled", "pipelined", "batched"} {
		if !labels[want] {
			t.Errorf("ladder missing cell %q", want)
		}
	}
}

// TestAuditSweepBatchingPhases checks that the ladder attributes where
// window time goes: the batched cell must land wait time in the
// batch_wait phase, which the unbatched cells can never have.
func TestAuditSweepBatchingPhases(t *testing.T) {
	sc := SmallScale()
	sc.StudyPages = 3000
	cells, err := AuditSweep(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		if cell.Label == "batched" {
			if cell.Audit.Phases.BatchWait == 0 {
				t.Errorf("batched cell has zero batch_wait time: %+v", cell.Audit.Phases)
			}
			if cell.Audit.Destroys.PLockBatch == 0 {
				t.Errorf("batched cell issued no batched pulses: %+v", cell.Audit.Destroys)
			}
		} else if cell.Audit.Phases.BatchWait != 0 || cell.Audit.Destroys.PLockBatch != 0 {
			t.Errorf("%s cell shows batching activity: %+v", cell.Label, cell.Audit)
		}
		// Relocations (GC) must register provenance: a churned device
		// always moves some secured copies.
		if cell.Audit.Copies.GC == 0 {
			t.Errorf("%s: no GC-relocated copies registered", cell.Label)
		}
		if cell.Audit.Copies.Host == 0 {
			t.Errorf("%s: no host-written copies registered", cell.Label)
		}
	}
}

// TestAuditVerifierUnderFaults regression-tests the bLock accounting
// gap: a reentrant IssueBLock (a GC flush racing an escalation's
// relocations) locks the whole block, so evacuation-stale copies must
// be reported destroyed with it — under a heavy fault schedule, every
// window still has to close by end of run.
func TestAuditVerifierUnderFaults(t *testing.T) {
	sc := SmallScale()
	sc.FaultRate = 1e-2
	sc.FaultSeed = 7
	rec := trace.NewRecorder(trace.RecorderConfig{
		Chips: Channels * ChipsPerChannel, Channels: Channels,
	})
	if _, err := ExecuteAudited(workload.MailServer(), sanitize.SecSSD(), 1.0, sc, rec); err != nil {
		t.Fatal(err)
	}
	rep := rec.AuditLedger().Verify(rec.Horizon())
	if !rep.Clean() {
		t.Fatalf("audit verifier unclean under faults: %v (first open: %+v)", rep.Err(), rep.Open[:min(3, len(rep.Open))])
	}
	st := rec.AuditLedger().Stats(rec.Horizon())
	if phaseSum(st.Phases) != st.WindowSumUs {
		t.Fatalf("phase sum %d != window sum %d", phaseSum(st.Phases), st.WindowSumUs)
	}
	if st.LadderDestroys == 0 {
		t.Fatal("fault campaign recorded no ladder destructions")
	}
}
