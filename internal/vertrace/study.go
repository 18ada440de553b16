package vertrace

import (
	"fmt"

	"repro/internal/blockio"
	"repro/internal/experiment"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// StudyConfig parameterizes a §3 data-versioning run. The paper uses a
// 16-GiB device with 4-KiB logical pages, fills 75% of it, and then runs
// until 64 GiB have been written; tests and the CLI scale these down.
type StudyConfig struct {
	Workload workload.Profile
	// CapacityPages is the file-system capacity in logical pages.
	CapacityPages int64
	// PageBytes is the logical page size (4096 in §3).
	PageBytes int
	// FillFraction is the initial fill level (0.75 in the paper).
	FillFraction float64
	// StudyPages is the number of pages written after the fill.
	StudyPages uint64
	Seed       int64
	// WatchIDs selects files whose Fig. 4 time plots are recorded.
	WatchIDs []uint64
}

// Validate checks the study parameters.
func (c StudyConfig) Validate() error {
	if c.CapacityPages <= 0 || c.PageBytes <= 0 {
		return fmt.Errorf("vertrace: bad capacity %d×%d", c.CapacityPages, c.PageBytes)
	}
	if c.FillFraction < 0 || c.FillFraction > 0.9 {
		return fmt.Errorf("vertrace: fill fraction %v out of [0,0.9]", c.FillFraction)
	}
	if c.StudyPages == 0 {
		return fmt.Errorf("vertrace: StudyPages must be positive")
	}
	return nil
}

// StudyResult carries everything §3 reports.
type StudyResult struct {
	Row     Table1Row
	Files   []FileMetrics
	Watched []*WatchSeries
}

// tickDevice is the study's SSD as the host stage sees it: a device of
// the study's capacity whose Submit, on the device stage, advances the
// tracker's clock by each host write (one tick per 4 KiB) before the SSD
// runs it. Its Mark does nothing: the study reads no device report.
type tickDevice struct {
	dev      *ssd.SSD
	tracker  *Tracker
	tickUnit float64 // ticks per page (pageBytes / 4096)
	pages    int64
}

func (d *tickDevice) Submit(req blockio.Request) (sim.Micros, error) {
	if req.Op == blockio.OpWrite {
		d.tracker.AdvanceTicks(int64(float64(req.Pages) * d.tickUnit))
	}
	return d.dev.Submit(req)
}

func (d *tickDevice) LogicalPages() int { return int(d.pages) }
func (d *tickDevice) Mark()             {}

// buildStudyDevice sizes a baseline (no-sanitization) SSD whose logical
// capacity covers the file-system capacity with GC headroom and whose
// page-lifecycle events go to tracker: 2×2 chips of 64-wordline TLC
// blocks, as many as hold capacityPages in 82 % of the raw pages plus
// eight per chip, 12 % over-provisioning (ssd raises it on the smallest
// devices to cover the GC reserve) and GC at two free blocks per chip.
func buildStudyDevice(capacityPages int64, pageBytes int, seed int64, tracker *Tracker) (*ssd.SSD, error) {
	cfg := ssd.DefaultConfig(sanitize.Baseline())
	cfg.Channels, cfg.ChipsPerChannel = 2, 2
	cfg.Chip.WLsPerBlock, cfg.Chip.PageBytes = 64, pageBytes
	cfg.Chip.Blocks = int(float64(capacityPages)/0.82/float64(4*cfg.Chip.PagesPerBlock())) + 8
	cfg.OverProvision = 0.12
	cfg.GCFreeBlocksLow = 2
	cfg.Seed = seed
	cfg.Trace = tracker
	dev, err := ssd.New(cfg)
	if err != nil {
		return nil, err
	}
	if int64(dev.LogicalPages()) < capacityPages {
		return nil, fmt.Errorf("vertrace: device logical capacity %d below study capacity %d",
			dev.LogicalPages(), capacityPages)
	}
	return dev, nil
}

// RunStudy executes the data-versioning study end to end: a baseline
// SSD annotated per page by the tracker, filled to the target fraction
// (creates/appends only), then the study volume, through experiment's
// host stage with the tracker observing the file system.
func RunStudy(cfg StudyConfig) (*StudyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tracker := NewTracker()
	dev, err := buildStudyDevice(cfg.CapacityPages, cfg.PageBytes, cfg.Seed, tracker)
	if err != nil {
		return nil, err
	}
	var watched []*WatchSeries
	for _, id := range cfg.WatchIDs {
		watched = append(watched, tracker.Watch(id))
	}
	td := &tickDevice{dev: dev, tracker: tracker, tickUnit: float64(cfg.PageBytes) / 4096.0, pages: cfg.CapacityPages}
	sc := experiment.Scale{PageBytes: cfg.PageBytes, PrefillFraction: cfg.FillFraction, Seed: cfg.Seed}
	if err := experiment.Drive(td, cfg.Workload, sc, cfg.StudyPages, tracker); err != nil {
		return nil, fmt.Errorf("vertrace: %w", err)
	}
	// T_insecure is normalized to the capacity in 4-KiB ticks.
	files := tracker.Finish(cfg.CapacityPages * int64(cfg.PageBytes) / 4096)
	return &StudyResult{Row: Summarize(cfg.Workload.Name, files), Files: files, Watched: watched}, nil
}
