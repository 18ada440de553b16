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

// TestAuditSweepWorkerInvariance is the golden determinism test for the
// traced ablation ladder's ledgers: every ledger counter and phase sum
// must be bit-identical whether the ladder runs serially or fanned over
// 4 workers — with lock batching both off ("disabled"/"pipelined") and
// on ("batched") — and each cell's ledger must hold over the whole
// simulated device.
func TestAuditSweepWorkerInvariance(t *testing.T) {
	sc := SmallScale()
	sc.StudyPages = 3000
	serial, err := BatchingAblation(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := BatchingAblation(sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("audit sweep differs by worker count:\nserial: %+v\nfanned: %+v", serial, fanned)
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
	}
	for _, want := range []string{"disabled", "pipelined", "batched"} {
		if !labels[want] {
			t.Errorf("ladder missing cell %q", want)
		}
	}
}

// TestAuditSweepBatchingPhases checks that the ablation ladder's audit
// ledgers attribute where window time goes: the batched cell must land
// wait time in the batch_wait phase, which the unbatched cells can never
// have.
func TestAuditSweepBatchingPhases(t *testing.T) {
	sc := SmallScale()
	sc.StudyPages = 3000
	cells, err := BatchingAblation(sc, 0)
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
	if _, err := ExecuteTraced(workload.MailServer(), sanitize.SecSSD(), 1.0, sc, rec); err != nil {
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
