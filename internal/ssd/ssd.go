// Package ssd assembles the full SecureSSD device of §7: channels × NAND
// chips behind an Evanesco-aware FTL, with a discrete timing model
// (per-chip and per-channel-bus timelines) and a closed-loop host
// interface that measures IOPS the way the paper's evaluation does.
//
// The default configuration matches the paper: 2 channels with four 3D
// TLC chips each, 428 blocks per chip, 576 16-KiB pages per block
// (32 GiB raw), with the chip latencies of nand.DefaultTiming.
package ssd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/adopt"
	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config assembles a device.
type Config struct {
	Channels        int
	ChipsPerChannel int
	// Chip is every chip's geometry. With Chip.Planes > 1 the FTL stripes
	// writes and groups reads across planes, sharing one tPROG/tREAD per
	// group.
	Chip nand.Geometry
	// OverProvision is the fraction of raw capacity reserved for GC
	// (default 0.07 when zero). It is a floor: the FTL keeps
	// GCFreeBlocksLow+1 blocks of every chip free outright, so
	// applyDefaults raises it to (GCFreeBlocksLow+1)/Chip.Blocks + 0.02
	// where that is higher — on small chips the paper's 7 % does not
	// cover the reserve.
	OverProvision float64
	// GCFreeBlocksLow is the per-chip GC trigger (default 3 when zero).
	GCFreeBlocksLow int
	// QueueDepth is the closed-loop window: request i may not start
	// before request i-QueueDepth completed (zero: DefaultQueueDepth).
	QueueDepth int
	// Policy is the sanitization strategy; nil means no sanitization.
	Policy ftl.Policy
	// NoCachePipeline disables the chips' cache-mode pipelining
	// (ablation): the page register is then occupied for the whole
	// cell-activity + bus-transfer span, so transfer of page i no longer
	// overlaps cell work of page i+1 on the same chip. The default
	// (false) models cache-enabled operation and keeps the historical
	// timing bit-for-bit.
	NoCachePipeline bool
	// LockBatch configures wordline-aware pLock batching in the FTL's
	// lock manager (§5 SBPI): pending pLocks on one wordline coalesce
	// into a single tpLock pulse.
	LockBatch ftl.LockBatchConfig
	// Seed drives the chips' RNGs.
	Seed int64
	// Fault configures deterministic fault injection (see internal/fault).
	// The zero value disables it. When enabled with a zero Fault.Seed, the
	// device Seed is used so one knob reproduces the whole run.
	Fault fault.Config
	// Trace receives every simulated operation (NAND commands, bus
	// transfers, host requests, GC passes) plus live gauges. Nil disables
	// tracing; the hot paths then pay a single predictable branch per
	// site. Use a *trace.Recorder to capture and export.
	Trace trace.Collector
}

// timing is the chips' datasheet latencies, which the device's chip and
// channel timelines reserve.
var timing = nand.DefaultTiming()

// DefaultQueueDepth is the closed-loop window of every device the
// artifacts build: a saturating host with 32 requests outstanding.
const DefaultQueueDepth = 32

// DefaultConfig returns the paper's SecureSSD configuration with the
// given policy.
func DefaultConfig(policy ftl.Policy) Config {
	return Config{
		Channels:        2,
		ChipsPerChannel: 4,
		Chip:            nand.DefaultGeometry(),
		OverProvision:   0.07,
		GCFreeBlocksLow: 3,
		QueueDepth:      DefaultQueueDepth,
		Policy:          policy,
		Seed:            1,
	}
}

func (c *Config) applyDefaults() {
	if c.OverProvision == 0 {
		c.OverProvision = 0.07
	}
	if c.GCFreeBlocksLow == 0 {
		c.GCFreeBlocksLow = 3
	}
	c.OverProvision = max(c.OverProvision, float64(c.GCFreeBlocksLow+1)/float64(c.Chip.Blocks)+0.02)
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Fault.Enabled() && c.Fault.Seed == 0 {
		c.Fault.Seed = c.Seed
	}
}

// SSD is the assembled device.
type SSD struct {
	cfg   Config
	chips []*nand.Chip
	ftl   *ftl.FTL
	geo   ftl.Geometry

	chipTL []sim.Timeline // one per chip
	busTL  []sim.Timeline // one per channel
	chanOf []int          // chip -> channel (chips are channel-major)

	// Closed-loop completion window.
	window []sim.Micros
	wIdx   int

	makespan  sim.Micros
	requests  uint64
	markSpan  sim.Micros
	markReqs  uint64
	markStats ftl.Stats

	// Read-path fault absorption (see Read): retries issued and reads
	// that stayed uncorrectable after maxReadAttempts.
	readRetries      uint64
	readFailures     uint64
	markReadRetries  uint64
	markReadFailures uint64

	// latencies samples per-request service time (completion − start)
	// within the current measurement window.
	latencies metrics.Sample

	// Tracing. traceOn caches tr.Enabled() so the per-op cost when
	// disabled is one predictable branch.
	tr      trace.Collector
	traceOn bool
	// Per-resource busy/wait snapshots taken at Mark(), so Report can
	// expose windowed utilization without touching whole-run counters.
	markChipBusy []sim.Micros
	markChanBusy []sim.Micros
	markChipWait []sim.Micros

	// Multi-plane command scratch buffers (reused across calls).
	slotScratch []int
	addrScratch []nand.PageAddr

	// cut is the device-wide power-loss schedule shared by every chip
	// (see ArmPowerCut); dead marks the device unusable after a cut
	// until Remount rebuilds the FTL from media.
	cut  *fault.CutState
	dead bool
}

// New builds the device.
func New(cfg Config) (*SSD, error) {
	return NewFrom(nil, cfg)
}

// NewFrom is New building on a retired device's storage: each chip and
// the FTL are built from their predecessors (nand.NewFrom, ftl.NewFrom),
// and the timelines, completion window, mark snapshots, command scratch
// and latency sample come from old through adopt.Zeroed where they are
// large enough. Everything else about the result — seeds, RNG streams,
// fault injectors, the power-cut schedule, policy, tracer — is what New
// sets: New is this body with no donor, so a device built from a retired
// one behaves exactly as a new one does. old must not be used
// afterwards; nil is allowed.
func NewFrom(old *SSD, cfg Config) (*SSD, error) {
	cfg.applyDefaults()
	if cfg.Channels <= 0 || cfg.ChipsPerChannel <= 0 {
		return nil, fmt.Errorf("ssd: need at least one channel and chip, got %d×%d",
			cfg.Channels, cfg.ChipsPerChannel)
	}
	if cfg.Channels > math.MaxInt8 || cfg.Channels*cfg.ChipsPerChannel > math.MaxInt16 {
		return nil, fmt.Errorf("ssd: %d channels × %d chips per channel exceeds the %d channels / %d chips a trace.Event addresses",
			cfg.Channels, cfg.ChipsPerChannel, math.MaxInt8, math.MaxInt16)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("ssd: a sanitization policy is required (use sanitize.Baseline() for none)")
	}
	if old == nil {
		old = &SSD{}
	}
	nChips := cfg.Channels * cfg.ChipsPerChannel
	s := &SSD{
		cfg:          cfg,
		chips:        make([]*nand.Chip, nChips),
		chipTL:       adopt.Zeroed(old.chipTL, nChips),
		busTL:        adopt.Zeroed(old.busTL, cfg.Channels),
		chanOf:       adopt.Zeroed(old.chanOf, nChips),
		window:       adopt.Zeroed(old.window, cfg.QueueDepth),
		markChipBusy: adopt.Zeroed(old.markChipBusy, nChips),
		markChanBusy: adopt.Zeroed(old.markChanBusy, cfg.Channels),
		markChipWait: adopt.Zeroed(old.markChipWait, nChips),
		slotScratch:  adopt.Zeroed(old.slotScratch, 0),
		addrScratch:  adopt.Zeroed(old.addrScratch, 0),
		latencies:    old.latencies,
		cut:          fault.NewCutState(),
	}
	s.latencies.Reset()
	s.tr = cfg.Trace
	if s.tr == nil {
		s.tr = trace.Nop{}
	}
	s.traceOn = s.tr.Enabled()
	for i := range s.chips {
		s.chanOf[i] = i / cfg.ChipsPerChannel
		opts := []nand.Option{nand.WithSeed(cfg.Seed + int64(i)), nand.WithPowerCut(s.cut)}
		if cfg.Fault.Enabled() {
			// One injector per chip, stream-indexed: chip operations are
			// serialized per chip, so each stream's draw order — and with
			// it the whole fault schedule — is a pure function of the
			// seed and the workload.
			opts = append(opts, nand.WithFaults(fault.New(cfg.Fault, uint64(i))))
		}
		var oldChip *nand.Chip
		if i < len(old.chips) {
			oldChip = old.chips[i]
		}
		chip, err := nand.NewFrom(oldChip, cfg.Chip, opts...)
		if err != nil {
			return nil, err
		}
		s.chips[i] = chip
	}
	geo, err := ftl.Geometry{
		Chips:         nChips,
		BlocksPerChip: cfg.Chip.Blocks,
		PagesPerBlock: cfg.Chip.PagesPerBlock(),
		PagesPerWL:    cfg.Chip.PagesPerWL(),
		PageBytes:     cfg.Chip.PageBytes,
		Planes:        cfg.Chip.PlaneCount(),
	}.Resolved()
	if err != nil {
		return nil, err
	}
	s.geo = geo
	f, err := ftl.NewFrom(old.ftl, s.ftlConfig(), s, cfg.Policy)
	if err != nil {
		return nil, err
	}
	s.ftl = f
	return s, nil
}

// ftlConfig assembles the translation-layer configuration; New and
// Remount must build from the identical parameters or the remounted
// device would export a different logical capacity.
func (s *SSD) ftlConfig() ftl.Config {
	return ftl.Config{
		Geometry:        s.geo,
		LogicalPages:    int(float64(s.geo.TotalPages()) * (1 - s.cfg.OverProvision)),
		GCFreeBlocksLow: s.cfg.GCFreeBlocksLow,
		LockBatch:       s.cfg.LockBatch,
		Tracer:          s.tr,
	}
}

// FTL exposes the underlying translation layer (stats, mappings) to
// tests of other packages.
//
//repro:testseam
func (s *SSD) FTL() *ftl.FTL { return s.ftl }

// Chips exposes the raw chips — the attacker's entry point in the threat
// model, and the verification hook for tests.
func (s *SSD) Chips() []*nand.Chip { return s.chips }

// Geometry returns the device-global geometry.
func (s *SSD) Geometry() ftl.Geometry { return s.geo }

// LogicalPages returns the exported capacity in pages.
func (s *SSD) LogicalPages() int { return s.ftl.LogicalPages() }

// channelOf maps a chip to its channel.
func (s *SSD) channelOf(chip int) int { return s.chanOf[chip] }

// addr converts a device PPA to chip coordinates.
func (s *SSD) addr(p ftl.PPA) (int, nand.PageAddr) {
	chip, block, page := s.geo.Locate(p)
	return chip, nand.PageAddr{Block: block, Page: page}
}

// --- ftl.Target implementation ------------------------------------------

// emitChip records a chip-resident operation's Timeline interval.
func (s *SSD) emitChip(class trace.OpClass, chip int, p ftl.PPA, queued, start, end sim.Micros) {
	s.tr.Op(trace.Event{
		Class: class, Start: start, End: end, Queued: queued,
		Chip: int16(chip), Channel: int8(s.channelOf(chip)),
		Block: int32(s.geo.BlockOf(p)), Page: int32(s.geo.PageInBlock(p)), LPA: -1,
	})
}

// maxReadAttempts bounds the read-retry loop: the initial read plus up to
// two retries. Real controllers re-read with shifted reference voltages;
// here each retry redraws the injected error count, so a marginal page
// usually recovers within the budget.
const maxReadAttempts = 3

// Read implements ftl.Target: the timing of readPage.
func (s *SSD) Read(p ftl.PPA, dep sim.Micros) sim.Micros {
	_, done := s.readPage(p, dep)
	return done
}

// Move implements ftl.Target: the cross-chip relocation leg. The payload
// readPage returns is a view of the source chip's read scratch; it goes
// straight into Program, which copies it, and never leaves the device.
func (s *SSD) Move(src, dst ftl.PPA, m blockio.Stamp, dep sim.Micros) (sim.Micros, error) {
	data, readDone := s.readPage(src, dep)
	return s.Program(dst, data, m, readDone)
}

// readPage is tREAD on the chip, then the page transfer on the channel
// bus. An uncorrectable read (injected bit errors beyond the ECC limit)
// is retried on the chip up to maxReadAttempts; each retry occupies the
// chip for another tREAD and is traced as OpReadRetry. After exhaustion
// the corrupted payload is returned as-is — never nil, so a GC
// relocation moves (damaged) data rather than silently dropping the
// page. The payload is only valid until the next operation on the chip.
func (s *SSD) readPage(p ftl.PPA, dep sim.Micros) ([]byte, sim.Micros) {
	chip, a := s.addr(p)
	data, err := s.chips[chip].Read(a, dep)
	cellStart, cellDone := s.chipTL[chip].Reserve(dep, timing.Read)
	if s.traceOn {
		s.emitChip(trace.OpRead, chip, p, dep, cellStart, cellDone)
	}
	if err != nil {
		data, cellDone = s.retryRead(chip, p, a, data, err, cellDone)
	}
	busStart, busDone := s.busTL[s.channelOf(chip)].Reserve(cellDone, timing.Xfer)
	if s.cfg.NoCachePipeline {
		// Without cache-mode the page register stays occupied until the
		// transfer drains it: hold the chip through the bus interval so
		// the next command cannot overlap it.
		s.chipTL[chip].Reserve(cellDone, busDone-cellDone)
	}
	if s.traceOn {
		s.emitChip(trace.OpXfer, chip, p, cellDone, busStart, busDone)
	}
	return data, busDone
}

// retryRead finishes a read of p whose first attempt, ending at
// cellDone, returned data and the error err. An uncorrectable page is
// read again on the chip until it corrects or maxReadAttempts reads are
// spent, each retry another tREAD traced as OpReadRetry, and counts as a
// read failure if none corrected it; its last payload is returned.
// Any other error (a locked page) returns no payload: the zeros never
// leave the chip. The second result is when the chip's last read ends.
func (s *SSD) retryRead(chip int, p ftl.PPA, a nand.PageAddr, data []byte, err error, cellDone sim.Micros) ([]byte, sim.Micros) {
	for attempt := 1; errors.Is(err, nand.ErrUncorrectable) && attempt < maxReadAttempts; attempt++ {
		s.readRetries++
		data, err = s.chips[chip].Read(a, cellDone)
		retryStart, retryDone := s.chipTL[chip].Reserve(cellDone, timing.Read)
		if s.traceOn {
			s.emitChip(trace.OpReadRetry, chip, p, cellDone, retryStart, retryDone)
		}
		cellDone = retryDone
	}
	if errors.Is(err, nand.ErrUncorrectable) {
		s.readFailures++
	} else if err != nil {
		data = nil
	}
	return data, cellDone
}

// Program implements ftl.Target: page transfer on the bus, then tPROG on
// the chip. An injected program failure still burned the bus and the full
// tPROG (the chip reported status FAIL only at the end), so the timeline
// reservation and trace events are identical to a success.
func (s *SSD) Program(p ftl.PPA, data []byte, m blockio.Stamp, dep sim.Micros) (sim.Micros, error) {
	chip, a := s.addr(p)
	_, err := s.chips[chip].Program(a, data, dep, m)
	if err != nil && !errors.Is(err, nand.ErrProgramFailed) {
		panic(fmt.Sprintf("ssd: FTL violated flash discipline at %v: %v", a, err))
	}
	busStart, busDone := s.busTL[s.channelOf(chip)].Reserve(dep, timing.Xfer)
	var progStart, done sim.Micros
	if s.cfg.NoCachePipeline {
		// The page register is busy from the moment the transfer starts
		// until the cells finish programming: one contiguous chip span.
		progStart, done = s.chipTL[chip].Reserve(busStart, (busDone-busStart)+timing.Prog)
	} else {
		progStart, done = s.chipTL[chip].Reserve(busDone, timing.Prog)
	}
	if s.traceOn {
		s.emitChip(trace.OpXfer, chip, p, dep, busStart, busDone)
		s.emitChip(trace.OpProgram, chip, p, busDone, progStart, done)
	}
	return done, err
}

// CopybackRun implements ftl.Target: internal data moves, tREAD then
// tPROG each, no bus. The chip takes the run's pages and stamps as the
// FTL gathered them, and one chip reservation of the time it reports
// grants the interval, busy and wait time of one per copy, each
// depending on the one before. While a power cut is armed it lands one
// page: under a collector the audit ledger must register each landed
// copy before the cut strikes the next one, so a cut strikes a program
// whose predecessors' bookkeeping is complete.
func (s *SSD) CopybackRun(block int, pages []int, dst ftl.PPA, m []blockio.Stamp, dep sim.Micros) (sim.Micros, sim.Micros, int, error) {
	chip, srcBlock := s.geo.ChipOfBlock(block), s.geo.BlockInChip(block)
	chipD, dstBlock, dstPage := s.geo.Locate(dst)
	if chip != chipD {
		panic("ssd: copyback across chips")
	}
	if s.cut.Armed() {
		pages, m = pages[:1], m[:1]
	}
	lat, n, err := s.chips[chip].CopybackRun(srcBlock, pages, nand.PageAddr{Block: dstBlock, Page: dstPage}, dep, m)
	if err != nil && !errors.Is(err, nand.ErrProgramFailed) {
		panic(fmt.Sprintf("ssd: copyback failed: %v", err))
	}
	start, done := s.chipTL[chip].Reserve(dep, lat)
	// One event per copy, named by its destination page and queued when
	// the copy before it ended.
	each := timing.Read + timing.Prog
	for t := start; s.traceOn && t < done; t += each {
		s.emitChip(trace.OpCopyback, chip, dst+ftl.PPA((t-start)/each), dep, t, t+each)
		dep = t + each
	}
	return start, done, n, err
}

// Erase implements ftl.Target.
func (s *SSD) Erase(block int, dep sim.Micros) (sim.Micros, error) {
	chip, local := s.geo.ChipOfBlock(block), s.geo.BlockInChip(block)
	_, err := s.chips[chip].Erase(local, dep)
	if err != nil && !errors.Is(err, nand.ErrEraseFailed) {
		panic(fmt.Sprintf("ssd: erase failed: %v", err))
	}
	start, done := s.chipTL[chip].Reserve(dep, timing.Erase)
	if s.traceOn {
		s.tr.Op(trace.Event{
			Class: trace.OpErase, Start: start, End: done, Queued: dep,
			Chip: int16(chip), Channel: int8(s.channelOf(chip)), Block: int32(block), Page: -1, LPA: -1,
		})
	}
	return done, err
}

// PLock implements ftl.Target.
func (s *SSD) PLock(p ftl.PPA, dep sim.Micros) (sim.Micros, error) {
	chip, a := s.addr(p)
	_, err := s.chips[chip].PLock(a, dep)
	if err != nil && !errors.Is(err, nand.ErrPLockFailed) {
		panic(fmt.Sprintf("ssd: pLock failed: %v", err))
	}
	start, done := s.chipTL[chip].Reserve(dep, timing.PLock)
	if s.traceOn {
		s.emitChip(trace.OpPLock, chip, p, dep, start, done)
	}
	return done, err
}

// BLock implements ftl.Target.
func (s *SSD) BLock(block int, dep sim.Micros) (sim.Micros, error) {
	chip, local := s.geo.ChipOfBlock(block), s.geo.BlockInChip(block)
	_, err := s.chips[chip].BLock(local, dep)
	if err != nil && !errors.Is(err, nand.ErrBLockFailed) {
		panic(fmt.Sprintf("ssd: bLock failed: %v", err))
	}
	start, done := s.chipTL[chip].Reserve(dep, timing.BLock)
	if s.traceOn {
		s.tr.Op(trace.Event{
			Class: trace.OpBLock, Start: start, End: done, Queued: dep,
			Chip: int16(chip), Channel: int8(s.channelOf(chip)), Block: int32(block), Page: -1, LPA: -1,
		})
	}
	return done, err
}

// Scrub implements ftl.Target.
func (s *SSD) Scrub(p ftl.PPA, dep sim.Micros) sim.Micros {
	chip, a := s.addr(p)
	if _, err := s.chips[chip].Scrub(a, dep); err != nil {
		panic(fmt.Sprintf("ssd: scrub failed: %v", err))
	}
	start, done := s.chipTL[chip].Reserve(dep, timing.Scrub)
	if s.traceOn {
		s.emitChip(trace.OpScrub, chip, p, dep, start, done)
	}
	return done
}

// --- ftl.Target device-parallelism commands -----------------------------

// PLockWL implements ftl.Target: one batched SBPI pulse programs the
// pAP flags of every given page of the wordline in a single tpLock of
// chip occupancy (§5).
func (s *SSD) PLockWL(block, wl int, pages []ftl.PPA, dep sim.Micros) (sim.Micros, error) {
	chip, local := s.geo.ChipOfBlock(block), s.geo.BlockInChip(block)
	slots := s.slotScratch[:0]
	for _, p := range pages {
		slots = append(slots, s.geo.WLSlot(p))
	}
	s.slotScratch = slots
	_, err := s.chips[chip].PLockWL(local, wl, slots, dep)
	if err != nil && !errors.Is(err, nand.ErrPLockFailed) {
		panic(fmt.Sprintf("ssd: batched pLock failed: %v", err))
	}
	start, done := s.chipTL[chip].Reserve(dep, timing.PLock)
	if s.traceOn {
		s.tr.Op(trace.Event{
			Class: trace.OpPLockBatch, Start: start, End: done, Queued: dep,
			Chip: int16(chip), Channel: int8(s.channelOf(chip)), Block: int32(block),
			Page: int32(wl * s.geo.PagesPerWL), LPA: -1, Pages: int32(len(pages)),
		})
	}
	return done, err
}

// ProgramGroup implements ftl.Target: a multi-plane program. The
// per-page transfers serialize on the channel bus, then a single shared
// tPROG covers every plane's cell activity.
func (s *SSD) ProgramGroup(pages []ftl.PPA, datas [][]byte, m blockio.Stamp, dep sim.Micros) (sim.Micros, []error) {
	chip := s.geo.ChipOf(pages[0])
	addrs := s.addrScratch[:0]
	for _, p := range pages {
		_, a := s.addr(p)
		addrs = append(addrs, a)
	}
	s.addrScratch = addrs
	_, errs, fatal := s.chips[chip].ProgramMulti(addrs, datas, dep, m)
	if fatal != nil {
		panic(fmt.Sprintf("ssd: FTL violated multi-plane discipline: %v", fatal))
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, nand.ErrProgramFailed) {
			panic(fmt.Sprintf("ssd: FTL violated flash discipline at %v: %v", addrs[i], err))
		}
	}
	bus := &s.busTL[s.channelOf(chip)]
	firstBusStart := sim.Micros(-1)
	lastBusEnd := dep
	for _, p := range pages {
		busStart, busDone := bus.Reserve(dep, timing.Xfer)
		if firstBusStart < 0 {
			firstBusStart = busStart
		}
		lastBusEnd = busDone
		if s.traceOn {
			s.emitChip(trace.OpXfer, chip, p, dep, busStart, busDone)
		}
	}
	var progStart, done sim.Micros
	if s.cfg.NoCachePipeline {
		progStart, done = s.chipTL[chip].Reserve(firstBusStart, (lastBusEnd-firstBusStart)+timing.Prog)
	} else {
		progStart, done = s.chipTL[chip].Reserve(lastBusEnd, timing.Prog)
	}
	if s.traceOn {
		s.tr.Op(trace.Event{
			Class: trace.OpProgramMulti, Start: progStart, End: done, Queued: dep,
			Chip: int16(chip), Channel: int8(s.channelOf(chip)),
			Block: int32(s.geo.BlockOf(pages[0])), Page: int32(s.geo.PageInBlock(pages[0])),
			LPA: -1, Pages: int32(len(pages)),
		})
	}
	return done, errs
}

// ReadGroup implements ftl.Target: a multi-plane read — one shared
// tREAD, then per-page bus transfers. Uncorrectable pages are retried
// individually (each retry burns a full tREAD, like the single-page
// path). Timing-only: the host read path discards payloads.
func (s *SSD) ReadGroup(pages []ftl.PPA, dep sim.Micros) sim.Micros {
	chip := s.geo.ChipOf(pages[0])
	addrs := s.addrScratch[:0]
	for _, p := range pages {
		_, a := s.addr(p)
		addrs = append(addrs, a)
	}
	s.addrScratch = addrs
	_, errs, fatal := s.chips[chip].ReadMulti(addrs, dep)
	if fatal != nil {
		panic(fmt.Sprintf("ssd: FTL violated multi-plane discipline: %v", fatal))
	}
	cellStart, cellDone := s.chipTL[chip].Reserve(dep, timing.Read)
	if s.traceOn {
		s.tr.Op(trace.Event{
			Class: trace.OpReadMulti, Start: cellStart, End: cellDone, Queued: dep,
			Chip: int16(chip), Channel: int8(s.channelOf(chip)),
			Block: int32(s.geo.BlockOf(pages[0])), Page: int32(s.geo.PageInBlock(pages[0])),
			LPA: -1, Pages: int32(len(pages)),
		})
	}
	for i, err := range errs {
		if err != nil {
			_, cellDone = s.retryRead(chip, pages[i], addrs[i], nil, err, cellDone)
		}
	}
	bus := &s.busTL[s.channelOf(chip)]
	end := cellDone
	for _, p := range pages {
		busStart, busDone := bus.Reserve(cellDone, timing.Xfer)
		end = busDone
		if s.traceOn {
			s.emitChip(trace.OpXfer, chip, p, cellDone, busStart, busDone)
		}
	}
	if s.cfg.NoCachePipeline {
		s.chipTL[chip].Reserve(cellDone, end-cellDone)
	}
	return end
}

// Close detaches the device from its trace collector, which a device
// kept only as a NewFrom donor (experiment's pool of retired cells) would
// otherwise keep reachable with every event it holds. The device must not
// be used afterwards except as a donor.
func (s *SSD) Close() {
	s.cfg.Trace, s.tr, s.traceOn = nil, trace.Nop{}, false
	s.ftl.Close()
}

// FlushLocks force-drains the FTL's wordline batching queue. Deferred-
// deadline configurations (LockBatch.Deadline > 0) use it as the
// end-of-run barrier so no queued lock outlives the workload.
func (s *SSD) FlushLocks() { s.ftl.FlushLocks() }

// --- host interface ------------------------------------------------------

// Submit runs one host request through the closed-loop model and returns
// its completion time.
func (s *SSD) Submit(req blockio.Request) (sim.Micros, error) {
	if s.dead {
		return 0, ErrPowerLost
	}
	start := s.window[s.wIdx]
	done, err := s.ftl.Submit(req, start)
	if err != nil {
		return done, err
	}
	s.window[s.wIdx] = done
	if s.wIdx++; s.wIdx == len(s.window) {
		s.wIdx = 0
	}
	if done > s.makespan {
		s.makespan = done
	}
	s.requests++
	s.latencies.Add(float64(done - start))
	if s.traceOn {
		var class trace.OpClass
		switch req.Op {
		case blockio.OpRead:
			class = trace.OpHostRead
		case blockio.OpTrim:
			class = trace.OpHostTrim
		default:
			class = trace.OpHostWrite
		}
		s.tr.Op(trace.Event{
			Class: class, Start: start, End: done, Queued: start,
			Chip: -1, Channel: -1, Block: -1, Page: -1,
			LPA: req.LPA, Pages: req.Pages,
		})
	}
	return done, nil
}

// ReadLogical fetches the current contents of a logical page directly
// from the chips (the host read data path). It returns nil when the page
// is unmapped.
func (s *SSD) ReadLogical(lpa int64) ([]byte, error) {
	p := s.ftl.Lookup(lpa)
	if p == ftl.NoPPA {
		return nil, nil
	}
	chip, a := s.addr(p)
	data, err := s.chips[chip].Read(a, s.makespan)
	if err != nil {
		return nil, err
	}
	// This debug/verification path returns the page to the caller, who
	// may hold it across later ops on the same chip, so it copies the page
	// out of the chip's read scratch. Appending to nil (not bytes.Clone)
	// keeps a page programmed without payload reading back as nil.
	return append([]byte(nil), data...), nil
}

// Mark snapshots the measurement window: Report()'s rates cover activity
// after the latest Mark. Use it to exclude prefill from measurements.
func (s *SSD) Mark() {
	s.markSpan = s.makespan
	s.markReqs = s.requests
	s.markStats = s.ftl.Stats()
	s.markReadRetries = s.readRetries
	s.markReadFailures = s.readFailures
	s.latencies.Reset()
	for i := range s.chipTL {
		s.markChipBusy[i] = s.chipTL[i].BusyTotal()
		s.markChipWait[i] = s.chipTL[i].WaitTotal()
	}
	for i := range s.busTL {
		s.markChanBusy[i] = s.busTL[i].BusyTotal()
	}
}

// Report summarizes the device activity since the last Mark.
type Report struct {
	Requests   uint64
	Elapsed    sim.Micros
	IOPS       float64
	WAF        float64
	Stats      ftl.Stats // deltas since Mark
	ChipUtil   float64   // whole-run busy ÷ (whole-run makespan × chips), prefill included — Mark does not restart it; ChipUtilPer is the windowed one
	ErasesFreq float64   // erases per million host pages written
	// ReadRetries and ReadFailures count read-path fault absorption over
	// the window: re-reads issued for uncorrectable pages, and reads that
	// stayed uncorrectable after the retry budget.
	ReadRetries  uint64
	ReadFailures uint64
	// Request service-time percentiles over the window, in µs.
	LatencyP50, LatencyP99, LatencyMax float64
	// Per-resource busy-time utilization over the measurement window
	// (busy µs since Mark / window µs).
	ChipUtilPer []float64
	ChanUtilPer []float64
	// ChipWaitUs is the queueing delay accumulated on each chip's
	// timeline over the window — the contention signal behind ChipUtil.
	ChipWaitUs []float64
}

// Report computes the measurement window summary.
func (s *SSD) Report() Report {
	cur := s.ftl.Stats()
	d := deltaStats(cur, s.markStats)
	elapsed := s.makespan - s.markSpan
	r := Report{
		Requests:     s.requests - s.markReqs,
		Elapsed:      elapsed,
		Stats:        d,
		ReadRetries:  s.readRetries - s.markReadRetries,
		ReadFailures: s.readFailures - s.markReadFailures,
	}
	if elapsed > 0 {
		r.IOPS = float64(r.Requests) / elapsed.Seconds()
	}
	if d.HostWrittenPages > 0 {
		r.WAF = float64(d.FlashPrograms) / float64(d.HostWrittenPages)
		r.ErasesFreq = float64(d.Erases) / float64(d.HostWrittenPages) * 1e6
	}
	var busy sim.Micros
	for i := range s.chipTL {
		busy += s.chipTL[i].BusyTotal()
	}
	if s.makespan > 0 {
		r.ChipUtil = float64(busy) / float64(int64(s.makespan)*int64(len(s.chipTL)))
	}
	r.ChipUtilPer = make([]float64, len(s.chipTL))
	r.ChipWaitUs = make([]float64, len(s.chipTL))
	r.ChanUtilPer = make([]float64, len(s.busTL))
	for i := range s.chipTL {
		r.ChipWaitUs[i] = float64(s.chipTL[i].WaitTotal() - s.markChipWait[i])
		if elapsed > 0 {
			r.ChipUtilPer[i] = float64(s.chipTL[i].BusyTotal()-s.markChipBusy[i]) / float64(elapsed)
		}
	}
	for i := range s.busTL {
		if elapsed > 0 {
			r.ChanUtilPer[i] = float64(s.busTL[i].BusyTotal()-s.markChanBusy[i]) / float64(elapsed)
		}
	}
	if s.latencies.N() > 0 {
		r.LatencyP50 = s.latencies.Quantile(0.5)
		r.LatencyP99 = s.latencies.Quantile(0.99)
		r.LatencyMax = s.latencies.Max()
	}
	return r
}

func deltaStats(a, b ftl.Stats) ftl.Stats {
	return ftl.Stats{
		HostReadPages:    a.HostReadPages - b.HostReadPages,
		HostWrittenPages: a.HostWrittenPages - b.HostWrittenPages,
		HostTrimmedPages: a.HostTrimmedPages - b.HostTrimmedPages,
		FlashReads:       a.FlashReads - b.FlashReads,
		FlashPrograms:    a.FlashPrograms - b.FlashPrograms,
		Erases:           a.Erases - b.Erases,
		PLocks:           a.PLocks - b.PLocks,
		BLocks:           a.BLocks - b.BLocks,
		Scrubs:           a.Scrubs - b.Scrubs,
		GCRuns:           a.GCRuns - b.GCRuns,
		GCCopies:         a.GCCopies - b.GCCopies,
		Copybacks:        a.Copybacks - b.Copybacks,
		SanitizeCopies:   a.SanitizeCopies - b.SanitizeCopies,
		ProgramFailures:  a.ProgramFailures - b.ProgramFailures,
		ProgramRetries:   a.ProgramRetries - b.ProgramRetries,
		PLockFailures:    a.PLockFailures - b.PLockFailures,
		LockEscalations:  a.LockEscalations - b.LockEscalations,
		BLockFailures:    a.BLockFailures - b.BLockFailures,
		RecoveryErases:   a.RecoveryErases - b.RecoveryErases,
		EraseFailures:    a.EraseFailures - b.EraseFailures,
		RetiredBlocks:    a.RetiredBlocks - b.RetiredBlocks,
		BackstopScrubs:   a.BackstopScrubs - b.BackstopScrubs,

		PLockBatches:       a.PLockBatches - b.PLockBatches,
		PLockBatchedPages:  a.PLockBatchedPages - b.PLockBatchedPages,
		PLockBatchFailures: a.PLockBatchFailures - b.PLockBatchFailures,
		ProgramGroups:      a.ProgramGroups - b.ProgramGroups,
		GroupedPrograms:    a.GroupedPrograms - b.GroupedPrograms,
		ReadGroups:         a.ReadGroups - b.ReadGroups,
		GroupedReads:       a.GroupedReads - b.GroupedReads,
	}
}

// FaultCounts aggregates the per-chip injector counters: what the fault
// layer actually did over the whole run, which the fault campaign tests
// check against what the FTL handled.
//
//repro:testseam
func (s *SSD) FaultCounts() fault.Counts {
	var c fault.Counts
	for _, chip := range s.chips {
		c.Add(chip.FaultCounts())
	}
	return c
}

// Replay submits every request of a recorded trace in order. Requests
// whose extents exceed this device's logical capacity are clipped, with
// their payload; the function returns the number of requests actually
// submitted.
func (s *SSD) Replay(t *blockio.Trace) (int, error) {
	logical := int64(s.ftl.LogicalPages())
	submitted := 0
	for _, req := range t.Requests {
		if req.LPA >= logical {
			continue
		}
		if req.LPA+int64(req.Pages) > logical {
			// PageData derives the per-page stride from Pages, so the
			// payload is clipped with them.
			keep := int32(logical - req.LPA)
			req.Data = req.Data[:len(req.Data)/int(req.Pages)*int(keep)]
			req.Pages = keep
		}
		if req.Pages <= 0 {
			continue
		}
		if _, err := s.Submit(req); err != nil {
			return submitted, err
		}
		submitted++
	}
	return submitted, nil
}
