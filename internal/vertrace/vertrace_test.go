package vertrace

import (
	"testing"

	"repro/internal/workload"
)

func TestTrackerCountsLifecycle(t *testing.T) {
	tr := NewTracker()
	tr.FileCreated(1, false)
	// Three pages written.
	tr.programmed(1)
	tr.programmed(1)
	tr.programmed(1)
	// The records live in a slice that grows: re-read after each step.
	st := tr.files[1]
	if st.valid != 3 || st.maxValid != 3 {
		t.Fatalf("valid=%d max=%d", st.valid, st.maxValid)
	}
	// Overwrite one page: new program + invalidation of the old copy.
	tr.AdvanceTicks(5)
	tr.programmed(1)
	tr.invalidated(10, 1)
	if st = tr.files[1]; st.valid != 3 || st.invalid != 1 || st.maxInvalid != 1 {
		t.Fatalf("after overwrite: valid=%d invalid=%d", st.valid, st.invalid)
	}
	// Destroy the stale copy.
	tr.AdvanceTicks(7)
	tr.destroyed(10)
	if st = tr.files[1]; st.invalid != 0 {
		t.Fatalf("invalid=%d after destroy", st.invalid)
	}
	if st.insecureTotal != 7 {
		t.Fatalf("insecureTotal=%d, want 7 ticks", st.insecureTotal)
	}
}

func TestTrackerDestroyDeduplicates(t *testing.T) {
	tr := NewTracker()
	tr.programmed(2)
	tr.invalidated(5, 2)
	tr.destroyed(5)
	tr.destroyed(5) // e.g. pLock then later block erase
	if got := tr.files[2].invalid; got != 0 {
		t.Fatalf("invalid=%d after duplicate destroy, want 0", got)
	}
}

func TestTrackerIgnoresUnannotated(t *testing.T) {
	tr := NewTracker()
	tr.programmed(0)
	tr.invalidated(1, 0)
	tr.destroyed(1)
	if len(tr.files) != 0 {
		t.Fatal("file 0 (unannotated) must not be tracked")
	}
}

func TestFinishMetrics(t *testing.T) {
	tr := NewTracker()
	tr.FileCreated(1, false)
	tr.programmed(1)
	tr.programmed(1)
	tr.AdvanceTicks(10)
	tr.programmed(1)
	tr.invalidated(10, 1)
	tr.AdvanceTicks(40)
	// Still insecure at Finish: the open interval must be closed.
	files := tr.Finish(100)
	if len(files) != 1 {
		t.Fatalf("%d files", len(files))
	}
	f := files[0]
	// maxValid peaks at 3 (the overwrite's new copy coexists briefly with
	// the old one, just as on a real append-only FTL); maxInvalid is 1.
	if f.VAF < 0.333 || f.VAF > 0.334 {
		t.Fatalf("VAF=%v, want 1/3", f.VAF)
	}
	if f.TInsecure != 0.4 { // 40 ticks / 100 capacity
		t.Fatalf("TInsecure=%v, want 0.4", f.TInsecure)
	}
}

func TestFinishSkipsInsecureFiles(t *testing.T) {
	tr := NewTracker()
	tr.FileCreated(1, true) // O_INSEC
	tr.programmed(1)
	if got := tr.Finish(10); len(got) != 0 {
		t.Fatalf("insecure files must be excluded, got %d", len(got))
	}
}

func TestFinishPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracker().Finish(0)
}

func TestMVClassification(t *testing.T) {
	tr := NewTracker()
	tr.FileCreated(1, false)
	tr.FileCreated(2, false)
	tr.FileCreated(3, false)
	tr.programmed(1)
	tr.programmed(2)
	tr.programmed(3)
	tr.FileOverwritten(2)
	tr.FileDeleted(3)
	files := tr.Finish(10)
	byID := map[uint64]FileMetrics{}
	for _, f := range files {
		byID[f.FileID] = f
	}
	if byID[1].MV {
		t.Fatal("append-only file classified MV")
	}
	if !byID[2].MV || !byID[3].MV {
		t.Fatal("overwritten/deleted files must be MV")
	}
}

func TestSummarizeGroups(t *testing.T) {
	files := []FileMetrics{
		{FileID: 1, MV: false, VAF: 0.2, TInsecure: 0.1},
		{FileID: 2, MV: false, VAF: 0.4, TInsecure: 0.3},
		{FileID: 3, MV: true, VAF: 2.0, TInsecure: 1.0},
	}
	row := Summarize("test", files)
	if row.UV.Files != 2 || row.MV.Files != 1 {
		t.Fatalf("groups %+v", row)
	}
	if row.UV.VAFAvg < 0.299 || row.UV.VAFAvg > 0.301 || row.UV.VAFMax != 0.4 {
		t.Fatalf("UV VAF %+v", row.UV)
	}
	if row.MV.TInsecMax != 1.0 {
		t.Fatalf("MV stats %+v", row.MV)
	}
}

func TestTopFiles(t *testing.T) {
	files := []FileMetrics{
		{FileID: 1, MV: false, MaxInvalid: 5},
		{FileID: 2, MV: false, MaxInvalid: 50},
		{FileID: 3, MV: true, MaxInvalid: 100},
	}
	top := TopFiles(files, false, 1)
	if len(top) != 1 || top[0].FileID != 2 {
		t.Fatalf("top UV = %+v", top)
	}
	top = TopFiles(files, true, 5)
	if len(top) != 1 || top[0].FileID != 3 {
		t.Fatalf("top MV = %+v", top)
	}
}

func TestWatchRecordsSeries(t *testing.T) {
	tr := NewTracker()
	ws := tr.Watch(7)
	tr.programmed(7)
	tr.AdvanceTicks(3)
	tr.programmed(7)
	tr.invalidated(1, 7)
	if ws.Valid.Len() == 0 || ws.Invalid.Len() == 0 {
		t.Fatal("watch recorded nothing")
	}
	if last := ws.Invalid.At(ws.Invalid.Len() - 1); last.V != 1 {
		t.Fatalf("invalid series last = %v", last)
	}
}

func TestStudyConfigValidation(t *testing.T) {
	bad := []StudyConfig{
		{CapacityPages: 0, PageBytes: 4096, StudyPages: 1},
		{CapacityPages: 10, PageBytes: 4096, FillFraction: 0.95, StudyPages: 1},
		{CapacityPages: 10, PageBytes: 4096, StudyPages: 0},
	}
	for i, c := range bad {
		c.Workload = workload.MailServer()
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// A scaled-down §3 run: verifies the qualitative Table 1 findings.
func TestStudyEndToEndScaledDown(t *testing.T) {
	runStudy := func(prof workload.Profile) *StudyResult {
		res, err := RunStudy(StudyConfig{
			Workload:      prof,
			CapacityPages: 24 * 1024, // 96 MiB at 4 KiB pages
			PageBytes:     4096,
			FillFraction:  0.75,
			StudyPages:    96 * 1024, // 4 capacities worth of writes
			Seed:          11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	mail := runStudy(workload.MailServer())
	db := runStudy(workload.DBServer())

	// Finding 1 (§3): heavily-updated MV files have large VAF; DBServer's
	// MV VAF dwarfs its UV VAF.
	if db.Row.MV.VAFMax < 1.0 {
		t.Errorf("DBServer MV max VAF %.2f, paper reports 7.8 (want > 1)", db.Row.MV.VAFMax)
	}
	if db.Row.MV.VAFMax <= db.Row.UV.VAFMax {
		t.Errorf("DBServer: MV VAF (%.2f) should exceed UV VAF (%.2f)",
			db.Row.MV.VAFMax, db.Row.UV.VAFMax)
	}

	// Finding 2: even UV files accumulate invalid versions through GC
	// copies (MailServer UV max VAF ≈ 1.0 in the paper).
	if mail.Row.UV.Files > 0 && mail.Row.UV.VAFMax == 0 {
		t.Errorf("MailServer UV files show no GC-induced invalid versions")
	}

	// Finding 3: T_insecure is nonzero — invalid data lingers.
	if mail.Row.MV.TInsecMax == 0 || db.Row.MV.TInsecMax == 0 {
		t.Error("stale data should linger (T_insecure > 0)")
	}

	// Device sanity: the study runs on a baseline SSD with GC active.
	if mail.DeviceReport.Stats.GCRuns == 0 {
		t.Error("study device never ran GC; fill/steady phases too small")
	}
}

func TestStudyWatchedSeries(t *testing.T) {
	res, err := RunStudy(StudyConfig{
		Workload:      workload.MailServer(),
		CapacityPages: 8 * 1024,
		PageBytes:     4096,
		FillFraction:  0.5,
		StudyPages:    16 * 1024,
		Seed:          3,
		WatchIDs:      []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Watched) != 3 {
		t.Fatalf("%d watched series", len(res.Watched))
	}
	recorded := false
	for _, ws := range res.Watched {
		if ws.Valid.Len() > 0 {
			recorded = true
		}
	}
	if !recorded {
		t.Fatal("no watched file recorded any points")
	}
}
