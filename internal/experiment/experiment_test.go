package experiment

import (
	"testing"

	"repro/internal/sanitize"
	"repro/internal/workload"
)

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"baseline", "erSSD", "scrSSD", "secSSD_nobLock", "secSSD"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestExecuteProducesActivity(t *testing.T) {
	run, err := Execute(workload.MailServer(), sanitize.SecSSD(), 1.0, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if run.IOPS() <= 0 {
		t.Fatal("no throughput measured")
	}
	if run.Report.Stats.HostWrittenPages < SmallScale().StudyPages {
		t.Fatalf("study wrote %d pages, want >= %d",
			run.Report.Stats.HostWrittenPages, SmallScale().StudyPages)
	}
	if run.Report.Stats.PLocks == 0 && run.Report.Stats.BLocks == 0 {
		t.Fatal("secSSD run issued no locks")
	}
}

func TestExecuteDeterministic(t *testing.T) {
	a, err := Execute(workload.DBServer(), sanitize.SecSSD(), 1.0, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(workload.DBServer(), sanitize.SecSSD(), 1.0, SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Stats != b.Report.Stats || a.Report.Elapsed != b.Report.Elapsed {
		t.Fatal("Execute is not deterministic")
	}
}

// The core Fig. 14 shape at small scale, on two contrasting workloads.
func TestFigure14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config run")
	}
	profiles := []workload.Profile{workload.MailServer(), workload.Mobile()}
	rows, err := Figure14Parallel(SmallScale(), profiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		// IOPS ordering: erSSD << scrSSD < secSSD <= ~baseline.
		if row.IOPS["erSSD"] >= row.IOPS["scrSSD"] {
			t.Errorf("%s: erSSD (%.3f) should trail scrSSD (%.3f)",
				row.Workload, row.IOPS["erSSD"], row.IOPS["scrSSD"])
		}
		if row.IOPS["scrSSD"] >= row.IOPS["secSSD"] {
			t.Errorf("%s: scrSSD (%.3f) should trail secSSD (%.3f)",
				row.Workload, row.IOPS["scrSSD"], row.IOPS["secSSD"])
		}
		if row.IOPS["secSSD"] < 0.55 {
			t.Errorf("%s: secSSD normalized IOPS %.3f too low", row.Workload, row.IOPS["secSSD"])
		}
		if row.IOPS["erSSD"] > 0.35 {
			t.Errorf("%s: erSSD normalized IOPS %.3f should collapse", row.Workload, row.IOPS["erSSD"])
		}
		// WAF ordering: erSSD >> scrSSD > secSSD ≈ baseline (1.0).
		if row.WAF["erSSD"] <= row.WAF["scrSSD"] || row.WAF["scrSSD"] <= row.WAF["secSSD"] {
			t.Errorf("%s: WAF ordering wrong: er=%.2f scr=%.2f sec=%.2f",
				row.Workload, row.WAF["erSSD"], row.WAF["scrSSD"], row.WAF["secSSD"])
		}
		if row.WAF["secSSD"] > 1.1 {
			t.Errorf("%s: secSSD WAF %.3f should match baseline", row.Workload, row.WAF["secSSD"])
		}
		// secSSD with bLock at least matches the no-bLock variant.
		if row.IOPS["secSSD"] < row.IOPS["secSSD_nobLock"]*0.98 {
			t.Errorf("%s: bLock made things worse (%.3f vs %.3f)",
				row.Workload, row.IOPS["secSSD"], row.IOPS["secSSD_nobLock"])
		}
	}
}

func TestFigure14cMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	pts, err := new(Memo).Figure14c(SmallScale(), []workload.Profile{workload.MailServer()},
		[]float64{0.6, 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// Fewer secured files -> fewer locks -> at least as fast.
	if pts[0].NormIOPS < pts[1].NormIOPS-0.02 {
		t.Errorf("60%% secure (%.3f) should not be slower than 100%% secure (%.3f)",
			pts[0].NormIOPS, pts[1].NormIOPS)
	}
	for _, p := range pts {
		if p.NormIOPS <= 0 || p.NormIOPS > 1.2 {
			t.Errorf("fraction %.1f: normalized IOPS %.3f out of range", p.Fraction, p.NormIOPS)
		}
	}
}

func TestComputeHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config run")
	}
	rows, err := Figure14Parallel(SmallScale(), []workload.Profile{workload.Mobile()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := ComputeHeadline(rows)
	if h.IOPSSpeedupMax <= 1 {
		t.Errorf("secSSD should beat scrSSD (speedup %.2f)", h.IOPSSpeedupMax)
	}
	if h.EraseReductionMax <= 0 {
		t.Errorf("secSSD should erase less than scrSSD (reduction %.2f)", h.EraseReductionMax)
	}
	if h.PLockReductionMax <= 0 {
		t.Errorf("bLock should reduce pLock count (reduction %.2f)", h.PLockReductionMax)
	}
}

// PaperError is 0 on the paper's own values and 1 with every aggregate
// at twice its paper value, over one row or two.
func TestPaperError(t *testing.T) {
	p := PaperHeadline
	for k, want := range map[float64]float64{1: 0, 2: 1} {
		row := Fig14Row{IOPS: map[string]float64{"scrSSD": k * PaperIOPS["scrSSD"], "secSSD": k * PaperIOPS["secSSD"]}}
		h := Headline{k * p.IOPSSpeedupMax, k * p.IOPSSpeedupAvg, k * p.EraseReductionMax, k * p.EraseReductionAvg,
			k * p.PLockReductionMax, k * p.PLockReductionAvg, k * p.BLockIOPSGainMax, k * p.BLockIOPSGainAvg}
		for _, rows := range [][]Fig14Row{{row}, {row, row}} {
			if got := PaperError(rows, h); got != want {
				t.Errorf("%d rows at %g× the paper: PaperError %v, want %v", len(rows), k, got, want)
			}
		}
	}
}
