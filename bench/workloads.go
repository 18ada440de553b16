package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cell is one (profile × policy) simulation at DefaultScale geometry.
type cell struct {
	Profile, Policy string
	// Study replaces both StudyPages and SlowPolicyStudyPages; zero keeps
	// the DefaultScale volumes.
	Study     uint64
	FaultRate float64
}

func (c cell) label() string { return c.Profile + "/" + c.Policy }

// workloadDef is one benchmark workload: a fixed set of cells whose host
// cost is concentrated in different layers of the simulator. The volumes
// are sized so that one pass over the cells takes 1.5–2 host seconds
// (fig14-grid: 8 s, the unmodified default-scale run) and repeats several
// times inside one measured run.
type workloadDef struct {
	Name, Why string
	// Grid runs experiment.Figure14Parallel over all 20 cells followed by
	// ComputeHeadline in place of Cells.
	Grid bool
	// Traced attaches a trace.Recorder to every cell; the harness also runs
	// the same cells with a nil collector in a twin child.
	Traced bool
	Cells  []cell
}

var workloads = []workloadDef{
	{
		Name: "fig14-grid", Grid: true,
		Why: "the north-star run: all 20 Fig. 14 cells at default scale, serial; every layer works and it alone has paper references",
	},
	{
		Name: "reloc-heavy",
		Why:  "erSSD/scrSSD cells with WAF in the hundreds: ftl relocation and nand copyback do the work, the host side almost none",
		Cells: []cell{
			{Profile: "MailServer", Policy: "erSSD", Study: 8_000},
			{Profile: "DBServer", Policy: "erSSD", Study: 8_000},
			{Profile: "DBServer", Policy: "scrSSD", Study: 100_000},
		},
	},
	{
		Name: "host-heavy",
		Why:  "baseline cells, many one-to-two-page requests and no sanitization: workload generator and filesys dominate, the mirror of reloc-heavy",
		Cells: []cell{
			{Profile: "MailServer", Policy: "baseline", Study: 250_000},
			{Profile: "FileServer", Policy: "baseline", Study: 250_000},
		},
	},
	{
		Name: "lock-heavy",
		Why:  "secSSD with and without bLock on delete/overwrite-driven profiles: trim -> policy -> lock manager path and nand/vth flag-cell programming",
		Cells: []cell{
			{Profile: "Mobile", Policy: "secSSD", Study: 250_000},
			{Profile: "DBServer", Policy: "secSSD", Study: 250_000},
			{Profile: "Mobile", Policy: "secSSD_nobLock", Study: 250_000},
			{Profile: "DBServer", Policy: "secSSD_nobLock", Study: 250_000},
		},
	},
	{
		Name: "traced-audit", Traced: true,
		Why: "secSSD cells under a trace.Recorder: the only workload where trace and audit run; carries the T_insecure and audit-ledger checks",
		Cells: []cell{
			{Profile: "MailServer", Policy: "secSSD", Study: 80_000},
			{Profile: "DBServer", Policy: "secSSD", Study: 80_000},
			{Profile: "Mobile", Policy: "secSSD", Study: 80_000},
		},
	},
	{
		Name: "fault-ladder",
		Why:  "fault rate 0.001 on one cell per sanitizer family: per-op fault draws and the recovery ladder, so failure and retry counts are nonzero",
		Cells: []cell{
			{Profile: "DBServer", Policy: "erSSD", Study: 5_000, FaultRate: 0.001},
			{Profile: "MailServer", Policy: "scrSSD", Study: 100_000, FaultRate: 0.001},
			{Profile: "MailServer", Policy: "secSSD", Study: 100_000, FaultRate: 0.001},
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Phases of a workload a child process can run.
const (
	phaseStudy = "study" // the cells as defined (with the Recorder if Traced)
	phaseTwin  = "twin"  // Traced cells with a nil collector
	phaseSetup = "setup" // the cells with zero study pages: device build + prefill
	// Not tied to a workload:
	phaseProbes = "probes" // runProbes
	phaseAttack = "attack" // the forensic attack matrix
)

// childSpec tells a child process what to run.
type childSpec struct {
	Workload string
	Phase    string
	Seed     int64
	// Profile wraps the run in a CPU profile and attributes it by layer.
	Profile bool
	// Small swaps in SmallScale geometry and volumes (tests only).
	Small bool
}

func (s childSpec) scale(c cell) experiment.Scale {
	sc := experiment.DefaultScale()
	if c.Study != 0 {
		sc.StudyPages, sc.SlowPolicyStudyPages = c.Study, c.Study
	}
	if s.Small {
		sc = experiment.SmallScale()
		sc.StudyPages, sc.SlowPolicyStudyPages = 2000, 500
	}
	if s.Phase == phaseSetup {
		sc.StudyPages, sc.SlowPolicyStudyPages = 0, 0
	}
	sc.Seed = s.Seed
	sc.FaultRate = c.FaultRate
	return sc
}

// cellResult is what one cell's simulation reported.
type cellResult struct {
	Label string
	Err   string `json:",omitempty"`
	// WallNs is the duration of the cell's Execute call (zero in the Grid
	// workload, which is one call for all cells).
	WallNs int64
	Report ssd.Report
	Digest string
	// Set on traced cells only.
	TraceEvents, TraceDropped uint64
	AuditWindows              uint64
	OpenCopies                int
	AuditClean                bool
}

func (c cellResult) chipOps() uint64 {
	s := c.Report.Stats
	return s.FlashReads + s.FlashPrograms + s.Erases + s.PLocks + s.BLocks + s.Scrubs
}

// runResult is one pass over a workload's cells.
type runResult struct {
	Cells []cellResult
	// WallNs sums the durations of the Execute/Figure14Parallel calls.
	WallNs int64
	// Fig14Err is set by the Grid workload.
	Fig14Err float64
	// T_insecure pooled over the traced cells, in simulated µs: median,
	// p99, sample count and how many samples lie beyond the p99.
	TInsecP50, TInsecP99  float64
	TInsecN, TInsecBeyond int
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// digestOf hashes everything a simulator-only change must leave identical.
func digestOf(label string, r ssd.Report) string {
	return digestString(fmt.Sprintf("%s %d %d %+v", label, r.Requests, r.Elapsed, r.Stats))
}

// runCells runs every cell of w once. A cell that returns an error or
// panics (over-provisioning exhausted under faults is a documented panic)
// is recorded in its Err, not propagated.
func runCells(w workloadDef, spec childSpec) runResult {
	var res runResult
	if w.Grid {
		res.runGrid(spec)
		return res
	}
	var tinsec []float64
	for _, c := range w.Cells {
		cr := cellResult{Label: c.label()}
		func() {
			defer func() {
				if r := recover(); r != nil {
					cr.Err = fmt.Sprint("panic: ", r)
				}
			}()
			prof, err := workload.ByName(c.Profile)
			if err != nil {
				cr.Err = err.Error()
				return
			}
			policy, err := experiment.PolicyByName(c.Policy)
			if err != nil {
				cr.Err = err.Error()
				return
			}
			var rec *trace.Recorder
			var run experiment.Run
			start := time.Now()
			if w.Traced && spec.Phase != phaseTwin {
				rec = trace.NewRecorder(trace.RecorderConfig{
					Chips:    experiment.Channels * experiment.ChipsPerChannel,
					Channels: experiment.Channels,
				})
				run, err = experiment.ExecuteTraced(prof, policy, 1.0, spec.scale(c), rec)
			} else {
				run, err = experiment.Execute(prof, policy, 1.0, spec.scale(c))
			}
			cr.WallNs = time.Since(start).Nanoseconds()
			res.WallNs += cr.WallNs
			if err != nil {
				cr.Err = err.Error()
				return
			}
			cr.Report = run.Report
			cr.Digest = digestOf(cr.Label, run.Report)
			if rec != nil {
				ledger := rec.AuditLedger()
				cr.TraceEvents = rec.TotalEvents()
				cr.TraceDropped = rec.Dropped()
				cr.AuditWindows = ledger.Stats(rec.Horizon()).Windows
				cr.OpenCopies = ledger.OpenCopies()
				cr.AuditClean = ledger.Verify(rec.Horizon()).Clean()
				tinsec = append(tinsec, rec.TInsecure().Values()...)
			}
		}()
		res.Cells = append(res.Cells, cr)
	}
	if n := len(tinsec); n > 0 {
		sort.Float64s(tinsec)
		p99 := min(n*99/100, n-1) // nearest rank
		res.TInsecN, res.TInsecBeyond = n, n-1-p99
		res.TInsecP50, res.TInsecP99 = tinsec[n/2], tinsec[p99]
	}
	return res
}

// Policies in Fig. 14 order, for a stable cell order out of Fig14Row.Runs.
var fig14Policies = []string{"baseline", "erSSD", "scrSSD", "secSSD_nobLock", "secSSD"}

func (res *runResult) runGrid(spec childSpec) {
	failed := cellResult{Label: "grid"}
	defer func() {
		if r := recover(); r != nil {
			failed.Err = fmt.Sprint("panic: ", r)
			res.Cells = append(res.Cells, failed)
		}
	}()
	start := time.Now()
	rows, err := experiment.Figure14Parallel(spec.scale(cell{}), nil, 1)
	var headline experiment.Headline
	if err == nil {
		headline = experiment.ComputeHeadline(rows)
	}
	res.WallNs = time.Since(start).Nanoseconds()
	if err != nil {
		failed.Err = err.Error()
		res.Cells = append(res.Cells, failed)
		return
	}
	for _, row := range rows {
		for _, policy := range fig14Policies {
			run := row.Runs[policy]
			label := row.Workload + "/" + policy
			res.Cells = append(res.Cells, cellResult{Label: label, Report: run.Report, Digest: digestOf(label, run.Report)})
		}
	}
	res.Fig14Err = fig14Err(rows, headline)
}

// fig14Err is the mean relative error against the ten aggregates the repo
// holds as paper references: Fig. 14(a) average normalized IOPS of scrSSD
// and secSSD, and the eight §1 headline numbers. The model is validated
// against these aggregates only; there is no held-out data.
func fig14Err(rows []experiment.Fig14Row, h experiment.Headline) float64 {
	var scr, sec float64
	for _, row := range rows {
		scr += row.IOPS["scrSSD"] / float64(len(rows))
		sec += row.IOPS["secSSD"] / float64(len(rows))
	}
	pairs := [][2]float64{
		{scr, 0.34}, {sec, 0.945},
		{h.IOPSSpeedupMax, 4.8}, {h.IOPSSpeedupAvg, 2.9},
		{h.EraseReductionMax, 0.79}, {h.EraseReductionAvg, 0.62},
		{h.PLockReductionMax, 0.57}, {h.PLockReductionAvg, 0.28},
		{h.BLockIOPSGainMax, 0.054}, {h.BLockIOPSGainAvg, 0.031},
	}
	var sum float64
	for _, p := range pairs {
		d := p[0] - p[1]
		if d < 0 {
			d = -d
		}
		sum += d / p[1]
	}
	return sum / float64(len(pairs))
}
