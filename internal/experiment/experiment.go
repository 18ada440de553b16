// Package experiment assembles and runs the paper's system-level
// evaluation (§7, Fig. 14): the four Table 2 workloads replayed against
// the five device configurations (baseline, erSSD, scrSSD,
// secSSD_nobLock, secSSD), reporting normalized IOPS, WAF, erase counts,
// and lock-operation statistics, plus the Fig. 14(c) secure-fraction
// sweep and the §1 headline aggregates.
package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/audit"
	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/filesys"
	"repro/internal/ftl"
	"repro/internal/parallel"
	"repro/internal/sanitize"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Device shape shared by every experiment (§7: 2 channels × 4 chips).
// Exported so trace consumers can size a Recorder to match.
const (
	Channels        = 2
	ChipsPerChannel = 4
)

// Scale sizes a Fig. 14 run. The paper's SecureSSD is 32 GiB with 16-KiB
// pages; erSSD's extreme write amplification (WAF in the hundreds) makes
// full-scale software emulation slow, so runs are scaled by a factor
// that preserves the blocks-per-chip : write-volume ratio.
type Scale struct {
	// BlocksPerChip (paper: 428).
	BlocksPerChip int
	// WLsPerBlock (paper: 192 -> 576 pages).
	WLsPerBlock int
	// PageBytes (paper: 16 KiB).
	PageBytes int
	// StudyPages is the measured write volume in pages after prefill.
	StudyPages uint64
	// SlowPolicyStudyPages, when nonzero, replaces StudyPages for the
	// erase-based configuration. erSSD's write amplification reaches the
	// hundreds, so emulating the full volume is prohibitively slow;
	// IOPS and WAF are rates and remain stable over a shorter window.
	SlowPolicyStudyPages uint64
	// PrefillFraction of the logical space filled before measuring.
	PrefillFraction float64
	Seed            int64
	// FaultRate enables deterministic fault injection at the given
	// uniform per-operation rate (see fault.Uniform). Zero disables it.
	FaultRate float64
	// FaultSeed drives the fault schedule; zero falls back to Seed.
	FaultSeed int64
	// Planes, NoCachePipeline and LockBatch tune the device's
	// parallelism/amortization features (see ssd.Config). The zero
	// values reproduce the pre-batching single-plane device.
	Planes          int
	NoCachePipeline bool
	LockBatch       ftl.LockBatchConfig
}

// Device is the §7 device at this scale: Channels × ChipsPerChannel of
// the paper's TLC chip with the scale's blocks, wordlines, page size and
// planes, GC at three free blocks per chip, and the paper's 7 %
// over-provisioning, which ssd raises to cover the GC reserve on the
// scaled-down chips. tr may be nil.
func (sc Scale) Device(policy ftl.Policy, tr trace.Collector) ssd.Config {
	cfg := ssd.DefaultConfig(policy)
	cfg.Channels, cfg.ChipsPerChannel = Channels, ChipsPerChannel
	cfg.Chip.Blocks, cfg.Chip.WLsPerBlock, cfg.Chip.PageBytes = sc.BlocksPerChip, sc.WLsPerBlock, sc.PageBytes
	cfg.Chip.Planes = max(sc.Planes, 1)
	cfg.Seed = sc.Seed
	cfg.Fault = fault.Uniform(sc.FaultRate, sc.FaultSeed)
	cfg.NoCachePipeline, cfg.LockBatch = sc.NoCachePipeline, sc.LockBatch
	cfg.Trace = tr
	return cfg
}

// recorder returns a trace.Recorder sized to the scale's device.
func (sc Scale) recorder() *trace.Recorder {
	dc := sc.Device(nil, nil)
	return trace.NewRecorder(trace.RecorderConfig{Chips: dc.Channels * dc.ChipsPerChannel, Channels: dc.Channels})
}

// studyPagesFor returns the measured volume for a policy.
func (sc Scale) studyPagesFor(policyName string) uint64 {
	if policyName == "erSSD" && sc.SlowPolicyStudyPages > 0 {
		return sc.SlowPolicyStudyPages
	}
	return sc.StudyPages
}

// SmallScale is a seconds-scale configuration for tests.
func SmallScale() Scale {
	return Scale{
		BlocksPerChip:   24,
		WLsPerBlock:     16,
		PageBytes:       4096,
		StudyPages:      6000,
		PrefillFraction: 0.75,
		Seed:            7,
	}
}

// DefaultScale is the CLI default: a 1/16-scale device (matching block
// geometry, fewer blocks) with a quarter-capacity measured write volume.
func DefaultScale() Scale {
	return Scale{
		BlocksPerChip:        48,
		WLsPerBlock:          192,
		PageBytes:            16 * 1024,
		StudyPages:           120_000,
		SlowPolicyStudyPages: 8_000,
		PrefillFraction:      0.75,
		Seed:                 7,
	}
}

// PaperScale matches §7 exactly (expensive under erSSD).
func PaperScale() Scale {
	return Scale{
		BlocksPerChip:        428,
		WLsPerBlock:          192,
		PageBytes:            16 * 1024,
		StudyPages:           1_000_000,
		SlowPolicyStudyPages: 20_000,
		PrefillFraction:      0.75,
		Seed:                 7,
	}
}

// ScaleByName resolves a CLI -scale value: small, default or paper.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return SmallScale(), nil
	case "default":
		return DefaultScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("experiment: unknown scale %q (want small, default or paper)", name)
}

// Policies returns the §7 device configurations in Fig. 14 order.
func Policies() []ftl.Policy { return sanitize.Policies() }

// PolicyByName resolves one of the five configuration names.
func PolicyByName(name string) (ftl.Policy, error) { return sanitize.ByName(name) }

// Run is one (workload, policy, secure-fraction) measurement.
type Run struct {
	Workload string
	Policy   string
	// SecureFraction is the share of files written with the default
	// (secured) mode; Fig. 14(a)(b) use 1.0.
	SecureFraction float64
	Report         ssd.Report
}

// IOPS is shorthand for the run's throughput.
func (r Run) IOPS() float64 { return r.Report.IOPS }

// WAF is shorthand for the run's write amplification.
func (r Run) WAF() float64 { return r.Report.WAF }

// Execute runs one configuration to completion, on the storage of a cell
// that finished earlier if one is waiting (see pool); no run can tell.
func Execute(prof workload.Profile, policy ftl.Policy, secureFraction float64, sc Scale) (Run, error) {
	return ExecuteTraced(prof, policy, secureFraction, sc, nil)
}

// ExecuteTraced is Execute with a trace collector attached to the device
// (nil behaves exactly like Execute). Pass a *trace.Recorder sized with
// Channels and ChipsPerChannel to capture the run for export; note the
// trace covers the prefill phase too — use the recorded horizon and the
// host events to separate phases if needed.
//
// It is the one body behind Execute and the grid cells. The host stage
// runs on the caller's goroutine and the device on one of its own (see
// drive). Once the report is taken it flushes the lock manager: with a
// batching deadline or fault-delayed retries, queued pLocks can outlive
// the last host request, and the collector's audit ledger, which can be
// verified as soon as the run returns, would report their windows as
// still open. The report is the workload's alone, so it is the same
// whether a collector is attached or not. The cell is built on a set
// taken from the pool and retires its own, detached from the collector,
// once the run has completed: a cell that fails or panics retires
// nothing.
func ExecuteTraced(prof workload.Profile, policy ftl.Policy, secureFraction float64, sc Scale, tr trace.Collector) (Run, error) {
	old := take()
	dev, err := ssd.NewFrom(old.dev, sc.Device(policy, tr))
	if err != nil {
		return Run{}, err
	}
	host, err := drive(dev, old, prof, secureFraction, sc, sc.studyPagesFor(policy.Name()), nil)
	if err != nil {
		return Run{}, err
	}
	run := Run{
		Workload:       prof.Name,
		Policy:         policy.Name(),
		SecureFraction: secureFraction,
		Report:         dev.Report(),
	}
	dev.FlushLocks()
	dev.Close()
	host.dev = dev
	retire(host)
	return run, nil
}

// pool holds the storage of finished cells for the cells that start
// next, which build theirs on it (ssd.NewFrom, filesys.NewFrom,
// workload.NewGeneratorFrom) instead of allocating the same tables
// again. It is one free list for the whole process, whatever runs the
// cells, and holds at most GOMAXPROCS sets, so what it retains is
// bounded by the CPU count, not by the number of grids or figures in
// flight. A set it turns away is garbage; one it holds stays until a
// cell takes it, whatever the collector does.
var pool struct {
	mu   sync.Mutex
	free []retired
}

// retired is a finished cell's device, file system, generator and pipe
// batch buffers.
type retired struct {
	dev     *ssd.SSD
	fs      *filesys.FS
	gen     *workload.Generator
	batches [][]blockio.Request
}

// take removes a retired cell from the pool, or returns the zero one
// when none is waiting.
func take() (r retired) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if n := len(pool.free); n > 0 {
		r, pool.free[n-1] = pool.free[n-1], retired{}
		pool.free = pool.free[:n-1]
	}
	return r
}

// retire offers a finished cell to the cells still to run.
func retire(r retired) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.free) < runtime.GOMAXPROCS(0) {
		pool.free = append(pool.free, r)
	}
}

// Fig14Row is one workload's column group in Fig. 14(a)/(b): every
// policy's IOPS and WAF normalized to the baseline device.
type Fig14Row struct {
	Workload string
	// Normalized values keyed by policy name.
	IOPS map[string]float64
	WAF  map[string]float64
	Runs map[string]Run
}

// Memo runs each distinct untraced cell once. A report asks for some
// cells from more than one figure — Fig. 14(c)'s baseline and secSSD
// cells at fraction 1.0 are Fig. 14(a)'s — and whichever figure asks
// first runs the cell while any other waits for it. A cell is keyed by
// its profile, policy, secure fraction and Scale, which fix every
// simulated value, so a remembered run is the one a fresh Execute would
// return; an error or panic is remembered too. The zero Memo is ready to
// use.
type Memo struct {
	mu    sync.Mutex
	cells map[memoKey]func() (Run, error)
}

type memoKey struct {
	prof     workload.Profile
	policy   string
	fraction float64
	sc       Scale
}

// execute is Execute, run at most once per key.
func (m *Memo) execute(prof workload.Profile, policy ftl.Policy, fraction float64, sc Scale) (Run, error) {
	k := memoKey{prof, policy.Name(), fraction, sc}
	m.mu.Lock()
	run, ok := m.cells[k]
	if !ok {
		run = sync.OnceValues(func() (Run, error) { return Execute(prof, policy, fraction, sc) })
		if m.cells == nil {
			m.cells = map[memoKey]func() (Run, error){}
		}
		m.cells[k] = run
	}
	m.mu.Unlock()
	return run()
}

// Figure14Parallel is Figure14 on a memo of its own: every cell a fresh
// simulation, since one grid asks for each cell once.
func Figure14Parallel(sc Scale, profiles []workload.Profile, workers int) ([]Fig14Row, error) {
	return new(Memo).Figure14(sc, profiles, workers)
}

// Figure14 runs all four workloads over all five configurations, the
// (workload × policy) grid fanned across up to workers goroutines (<= 0:
// one per CPU). Every cell is an independent seeded simulation — its own
// device, chips, and RNGs, built on the storage of a cell that finished
// earlier (see pool), which changes nothing a run can observe — and
// results are gathered in grid order, so the rows are bit-identical for
// any worker count.
func (m *Memo) Figure14(sc Scale, profiles []workload.Profile, workers int) ([]Fig14Row, error) {
	if profiles == nil {
		profiles = workload.Profiles()
	}
	nPol := len(Policies())
	runs, err := parallel.Map(workers, len(profiles)*nPol, func(i int) (Run, error) {
		prof := profiles[i/nPol]
		// Fresh policy instances per cell: a policy must never be shared
		// between concurrently running devices.
		policy := Policies()[i%nPol]
		run, err := m.execute(prof, policy, 1.0, sc)
		if err != nil {
			return Run{}, fmt.Errorf("%s/%s: %w", prof.Name, policy.Name(), err)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig14Row
	for pi, prof := range profiles {
		row := Fig14Row{
			Workload: prof.Name,
			IOPS:     map[string]float64{},
			WAF:      map[string]float64{},
			Runs:     map[string]Run{},
		}
		var base Run
		for k := 0; k < nPol; k++ {
			run := runs[pi*nPol+k]
			row.Runs[run.Policy] = run
			if run.Policy == "baseline" {
				base = run
			}
		}
		for name, run := range row.Runs {
			if base.IOPS() > 0 {
				row.IOPS[name] = run.IOPS() / base.IOPS()
			}
			if base.WAF() > 0 {
				row.WAF[name] = run.WAF() / base.WAF()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig14cPoint is one (workload, fraction) cell of Fig. 14(c).
type Fig14cPoint struct {
	Workload string
	Fraction float64
	// IOPS normalized to the baseline device on the same workload.
	NormIOPS float64
}

// Figure14c sweeps the secured-data fraction for secSSD: the (workload ×
// fraction) grid — plus each workload's baseline run — fanned across up
// to workers goroutines, bit-identical for any worker count.
func (m *Memo) Figure14c(sc Scale, profiles []workload.Profile, fractions []float64, workers int) ([]Fig14cPoint, error) {
	if profiles == nil {
		profiles = workload.Profiles()
	}
	if fractions == nil {
		fractions = []float64{0.6, 0.7, 0.8, 0.9, 1.0}
	}
	// Per profile: one baseline cell followed by the fraction sweep, in
	// the same order the serial loop ran them.
	per := 1 + len(fractions)
	runs, err := parallel.Map(workers, len(profiles)*per, func(i int) (Run, error) {
		prof := profiles[i/per]
		if k := i % per; k > 0 {
			return m.execute(prof, sanitize.SecSSD(), fractions[k-1], sc)
		}
		return m.execute(prof, sanitize.Baseline(), 1.0, sc)
	})
	if err != nil {
		return nil, err
	}
	var pts []Fig14cPoint
	for pi, prof := range profiles {
		base := runs[pi*per]
		for fi, frac := range fractions {
			run := runs[pi*per+1+fi]
			norm := 0.0
			if base.IOPS() > 0 {
				norm = run.IOPS() / base.IOPS()
			}
			pts = append(pts, Fig14cPoint{Workload: prof.Name, Fraction: frac, NormIOPS: norm})
		}
	}
	return pts, nil
}

// Headline aggregates the §1 claims from a Figure14 result set, each as
// its maximum and average over workloads; PaperHeadline is the paper's.
type Headline struct {
	// SecSSD's IOPS speedup over scrSSD, the better reprogram-based baseline.
	IOPSSpeedupMax, IOPSSpeedupAvg float64
	// SecSSD's erase reduction vs. scrSSD, as a fraction.
	EraseReductionMax, EraseReductionAvg float64
	// bLock's contribution: pLock count reduction vs. secSSD_nobLock and
	// IOPS gain, as fractions.
	PLockReductionMax, PLockReductionAvg float64
	BLockIOPSGainMax, BLockIOPSGainAvg   float64
}

// ComputeHeadline derives the headline numbers.
func ComputeHeadline(rows []Fig14Row) Headline {
	var h Headline
	var nIOPS, nErase, nPLock, nGain int
	var sumIOPS, sumErase, sumPLock, sumGain float64
	for _, row := range rows {
		sec, okS := row.Runs["secSSD"]
		scr, okC := row.Runs["scrSSD"]
		nob, okN := row.Runs["secSSD_nobLock"]
		if okS && okC && scr.IOPS() > 0 {
			sp := sec.IOPS() / scr.IOPS()
			sumIOPS += sp
			nIOPS++
			if sp > h.IOPSSpeedupMax {
				h.IOPSSpeedupMax = sp
			}
			if scr.Report.Stats.Erases > 0 {
				red := 1 - float64(sec.Report.Stats.Erases)/float64(scr.Report.Stats.Erases)
				sumErase += red
				nErase++
				if red > h.EraseReductionMax {
					h.EraseReductionMax = red
				}
			}
		}
		if okS && okN {
			if nob.Report.Stats.PLocks > 0 {
				red := 1 - float64(sec.Report.Stats.PLocks)/float64(nob.Report.Stats.PLocks)
				sumPLock += red
				nPLock++
				if red > h.PLockReductionMax {
					h.PLockReductionMax = red
				}
			}
			if nob.IOPS() > 0 {
				gain := sec.IOPS()/nob.IOPS() - 1
				sumGain += gain
				nGain++
				if gain > h.BLockIOPSGainMax {
					h.BLockIOPSGainMax = gain
				}
			}
		}
	}
	if nIOPS > 0 {
		h.IOPSSpeedupAvg = sumIOPS / float64(nIOPS)
	}
	if nErase > 0 {
		h.EraseReductionAvg = sumErase / float64(nErase)
	}
	if nPLock > 0 {
		h.PLockReductionAvg = sumPLock / float64(nPLock)
	}
	if nGain > 0 {
		h.BLockIOPSGainAvg = sumGain / float64(nGain)
	}
	return h
}

// PaperIOPS, PaperWAF and PaperHeadline are the paper's Fig. 14(a) and
// 14(b) values per policy (erSSD's IOPS a bound, the rest averages; the
// WAFs maxima) and its §1 headline. A policy the paper gives no number
// for has no key.
var (
	PaperIOPS     = map[string]float64{"erSSD": 0.04, "scrSSD": 0.34, "secSSD": 0.945}
	PaperWAF      = map[string]float64{"erSSD": 320, "scrSSD": 4.41, "secSSD": 1.0}
	PaperHeadline = Headline{IOPSSpeedupMax: 4.8, IOPSSpeedupAvg: 2.9, EraseReductionMax: 0.79, EraseReductionAvg: 0.62,
		PLockReductionMax: 0.57, PLockReductionAvg: 0.28, BLockIOPSGainMax: 0.054, BLockIOPSGainAvg: 0.031}
)

// PaperError is the mean relative error of ten aggregates against the
// paper's, the only data the model is validated on: rows' average
// Fig. 14(a) IOPS of scrSSD and secSSD, and the eight fields of h.
func PaperError(rows []Fig14Row, h Headline) float64 {
	var scr, sec float64
	for _, row := range rows {
		scr += row.IOPS["scrSSD"] / float64(len(rows))
		sec += row.IOPS["secSSD"] / float64(len(rows))
	}
	aggregates := func(scr, sec float64, h Headline) []float64 {
		return []float64{scr, sec, h.IOPSSpeedupMax, h.IOPSSpeedupAvg, h.EraseReductionMax, h.EraseReductionAvg,
			h.PLockReductionMax, h.PLockReductionAvg, h.BLockIOPSGainMax, h.BLockIOPSGainAvg}
	}
	ours, paper := aggregates(scr, sec, h), aggregates(PaperIOPS["scrSSD"], PaperIOPS["secSSD"], PaperHeadline)
	var sum float64
	for i, p := range paper {
		sum += max(ours[i]-p, p-ours[i]) / p
	}
	return sum / float64(len(paper))
}

// BatchingCell is one device configuration of the amortization ablation:
// the same workload and sanitization policy run against progressively
// more of the device-parallelism features.
type BatchingCell struct {
	// Label names the feature set ("disabled", "pipelined", "batched").
	Label string
	// Planes / NoCachePipeline / LockBatch are the ssd.Config knobs the
	// cell turns on.
	Planes          int
	NoCachePipeline bool
	LockBatch       ftl.LockBatchConfig
	Run             Run
	// Audit is the cell's audit-ledger counters at the run's horizon, and
	// Verify its end-of-run check: no live unlocked secured copy, and
	// phase sums that match every closed window.
	Audit  audit.Stats
	Verify audit.VerifyReport
}

// BatchingCells returns the ablation ladder: "disabled" is the device
// with every parallelism feature off (single plane, no cache-mode
// pipelining, per-page pLock pulses), "pipelined" adds two-plane
// striping and cached transfers, and "batched" adds wordline-aware
// pLock coalescing on top. The batched cell runs in deferred mode
// (Deadline 2 ms, Threshold 96): file deletes arrive as one trim
// request per extent run, and only a queue that survives across those
// requests can reassemble a wordline whose stale pages are spread over
// several runs (interleaved files split a WL's pages across extents).
func BatchingCells() []BatchingCell {
	return []BatchingCell{
		{Label: "disabled", Planes: 1, NoCachePipeline: true},
		{Label: "pipelined", Planes: 2},
		{Label: "batched", Planes: 2,
			LockBatch: ftl.LockBatchConfig{Enabled: true, Deadline: 2000, Threshold: 96}},
	}
}

// BatchingAblation runs the sanitization-heavy Mobile workload (§7
// Table 2: create/delete dominated, 512 KiB–8 MiB files) on the secSSD
// device across the BatchingCells ladder, fanned over up to workers
// goroutines, each cell under a trace.Recorder whose audit ledger it
// keeps. Each cell is an independent seeded simulation and the ledger
// is built in event order, so the result — every report field, ledger
// counter and phase sum — is bit-identical for any worker count.
func BatchingAblation(sc Scale, workers int) ([]BatchingCell, error) {
	cells := BatchingCells()
	prof := workload.Mobile()
	return parallel.Map(workers, len(cells), func(i int) (BatchingCell, error) {
		c := cells[i]
		cs := sc
		cs.Planes, cs.NoCachePipeline, cs.LockBatch = c.Planes, c.NoCachePipeline, c.LockBatch
		rec := cs.recorder()
		run, err := ExecuteTraced(prof, sanitize.SecSSD(), 1.0, cs, rec)
		if err != nil {
			return BatchingCell{}, fmt.Errorf("batching/%s: %w", c.Label, err)
		}
		c.Run = run
		c.Audit = rec.AuditLedger().Stats(rec.Horizon())
		c.Verify = rec.AuditLedger().Verify(rec.Horizon())
		return c, nil
	})
}
