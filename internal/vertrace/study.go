package vertrace

import (
	"fmt"

	"repro/internal/blockio"
	"repro/internal/filesys"
	"repro/internal/parallel"
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
	// DeviceReport is the underlying SSD's activity (for sanity checks).
	DeviceReport ssd.Report
}

// tickDevice advances the tracker's logical clock on host writes (one
// tick per 4-KiB write) before forwarding to the SSD.
type tickDevice struct {
	dev      *ssd.SSD
	tracker  *Tracker
	tickUnit float64 // ticks per page (pageBytes / 4096)
}

func (d *tickDevice) Submit(req blockio.Request) (sim.Micros, error) {
	if req.Op == blockio.OpWrite {
		d.tracker.AdvanceTicks(int64(float64(req.Pages) * d.tickUnit))
	}
	return d.dev.Submit(req)
}

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

// RunStudies executes several independent studies with up to workers
// running concurrently (<= 0: one per CPU), returning results in input
// order. Each study owns its entire stack (device, tracker, file layer,
// generator), so the batch is bit-identical to running them serially;
// on failure the error of the lowest-index failing study is returned.
func RunStudies(cfgs []StudyConfig, workers int) ([]*StudyResult, error) {
	return parallel.Map(workers, len(cfgs), func(i int) (*StudyResult, error) {
		return RunStudy(cfgs[i])
	})
}

// RunStudy executes the data-versioning study end to end: baseline SSD,
// ext4-like file layer, workload generator, per-page file annotation.
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

	td := &tickDevice{dev: dev, tracker: tracker, tickUnit: float64(cfg.PageBytes) / 4096.0}
	fs, err := filesys.New(td, cfg.CapacityPages, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	fs.SetObserver(tracker)

	gen := workload.NewGenerator(cfg.Workload, fs, cfg.PageBytes, cfg.Seed)

	// Phase 1: fill to the target fraction (creates/appends only).
	if err := gen.Fill(cfg.FillFraction); err != nil {
		return nil, fmt.Errorf("vertrace: fill phase: %w", err)
	}
	// Phase 2: steady-state study volume.
	if err := gen.RunPages(cfg.StudyPages); err != nil {
		return nil, fmt.Errorf("vertrace: study phase: %w", err)
	}

	// Capacity in 4-KiB ticks for the T_insecure normalization.
	capacityTicks := cfg.CapacityPages * int64(cfg.PageBytes) / 4096
	files := tracker.Finish(capacityTicks)
	return &StudyResult{
		Row:          Summarize(cfg.Workload.Name, files),
		Files:        files,
		Watched:      watched,
		DeviceReport: dev.Report(),
	}, nil
}
