package vertrace

import (
	"reflect"
	"testing"

	"repro/internal/filesys"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// TestStudiesWorkerInvariant checks that studies fanned over two
// workers, each study's host and device stages on two goroutines of its
// own, return exactly what serial RunStudy calls produce, in input
// order.
func TestStudiesWorkerInvariant(t *testing.T) {
	mkCfg := func(p workload.Profile) StudyConfig {
		return StudyConfig{
			Workload:      p,
			CapacityPages: 8 * 1024,
			PageBytes:     4096,
			FillFraction:  0.7,
			StudyPages:    8 * 1024,
			Seed:          3,
		}
	}
	cfgs := []StudyConfig{mkCfg(workload.Mobile()), mkCfg(workload.MailServer())}

	var serial []*StudyResult
	for _, cfg := range cfgs {
		r, err := RunStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}
	par, err := parallel.Map(2, len(cfgs), func(i int) (*StudyResult, error) { return RunStudy(cfgs[i]) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("study %d (%s) differs between serial and parallel runs",
				i, cfgs[i].Workload.Name)
		}
	}
}

// TestPipedStudyMatchesOneGoroutine: a study whose tracker hears the
// file system on the host goroutine and the device on another equals
// the study with the file system and generator driving the device on
// one goroutine, watched series included.
func TestPipedStudyMatchesOneGoroutine(t *testing.T) {
	for _, prof := range []workload.Profile{workload.MailServer(), workload.DBServer()} {
		cfg := StudyConfig{
			Workload:      prof,
			CapacityPages: 8 * 1024,
			PageBytes:     4096,
			FillFraction:  0.7,
			StudyPages:    16 * 1024,
			Seed:          5,
			WatchIDs:      []uint64{1, 7, 40},
		}
		got, err := RunStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := oneGoroutineStudy(t, cfg)
		if len(want.Files) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the piped study differs from the one-goroutine study (%d files, want %d)",
				prof.Name, len(got.Files), len(want.Files))
		}
	}
}

// oneGoroutineStudy is RunStudy with the host stage calling the device
// directly: the fill, then the study volume.
func oneGoroutineStudy(t *testing.T, cfg StudyConfig) *StudyResult {
	t.Helper()
	tracker := NewTracker()
	dev, err := buildStudyDevice(cfg.CapacityPages, cfg.PageBytes, cfg.Seed, tracker)
	if err != nil {
		t.Fatal(err)
	}
	var watched []*WatchSeries
	for _, id := range cfg.WatchIDs {
		watched = append(watched, tracker.Watch(id))
	}
	td := &tickDevice{dev: dev, tracker: tracker, tickUnit: float64(cfg.PageBytes) / 4096.0, pages: cfg.CapacityPages}
	fs, err := filesys.New(td, cfg.CapacityPages, cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetObserver(tracker)
	gen := workload.NewGenerator(cfg.Workload, fs, cfg.PageBytes, cfg.Seed)
	if err := gen.Fill(cfg.FillFraction); err != nil {
		t.Fatal(err)
	}
	if err := gen.RunPages(cfg.StudyPages); err != nil {
		t.Fatal(err)
	}
	files := tracker.Finish(cfg.CapacityPages * int64(cfg.PageBytes) / 4096)
	return &StudyResult{Row: Summarize(cfg.Workload.Name, files), Files: files, Watched: watched}
}
