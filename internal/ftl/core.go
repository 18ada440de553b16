package ftl

import (
	"fmt"
	"slices"

	"repro/internal/adopt"
	"repro/internal/audit"
	"repro/internal/blockio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FTL is the Evanesco-aware flash translation layer.
type FTL struct {
	cfg    Config
	geo    Geometry
	target Target
	policy Policy

	tracer  trace.Collector
	traceOn bool
	// ladderDepth counts the recovery-ladder rungs currently on the call
	// stack (escalation, recovery erase, retirement); destructions that
	// complete while it is nonzero are attributed to the ladder phase of
	// the audit ledger.
	ladderDepth int

	l2p []PPA   // logical page -> physical page
	p2l []int64 // physical page -> logical page (-1 when none)
	// fileOf maps a physical page to its owning file annotation. Only the
	// audit events read it, so it exists only when traceOn, the way the
	// lock-queue arrays exist only under LockBatch.Enabled.
	fileOf []uint64
	status []PageStatus
	// statusCount tracks the page population per PageStatus; every status
	// transition goes through setStatus to keep it exact. It feeds the
	// valid/secured/invalid telemetry gauges.
	statusCount [NumPageStatus]int64

	liveInBlock []int32 // live (valid+secured) pages per global block
	usedInBlock []int32 // programmed pages per global block (free = total-used)
	eraseCount  []int32 // erases per global block (wear)

	// lockedBlocks marks bLocked blocks (set by IssueBLock / escalation,
	// cleared by erase); retired marks blocks pulled from rotation after
	// an erase failure. Both gate further lock/erase/allocate activity.
	lockedBlocks []bool
	retired      []bool

	chips  []chipState
	planes int // cached Geometry.PlaneCount()

	// writeSeq is the device-wide monotone write sequence number behind
	// the spare-area stamps of committed programs: a program carries
	// writeSeq+1 (stamp) and writeSeq advances when it succeeds. Restore
	// resumes it past the highest surviving stamp.
	writeSeq uint64

	// pendingPages collects secured invalidations per global block between
	// Flush calls (nil = nothing queued for the block); pendingList holds
	// the block ids in first-pend order, possibly with stale entries that
	// DrainPending skips. The flat arrays replace a map: DrainPending runs
	// on every host request, and the map allocation + sort dominated the
	// secSSD flush profile.
	pendingPages [][]PPA
	pendingList  []int
	pendingCount int
	// pendingFree and drainFree hold the per-block page slices and the
	// drain results policies handed back through ReleasePending, emptied,
	// for PendSanitize and DrainPending to reuse.
	pendingFree [][]PPA
	drainFree   [][]PendingBlock

	// lockq coalesces pending pLocks per wordline into batched SBPI pulses
	// (lockmgr.go); cfg.LockBatch.Enabled gates the whole path.
	lockq lockQueue

	// wlMark/wlGen dedupe device-global wordlines without clearing
	// (LockPulses); len(wlMark) = TotalWLs.
	wlMark []int32
	wlGen  int32

	// Multi-plane scratch buffers (hot path, reused across requests).
	stripeScratch []PPA
	stripeOlds    []PPA
	stripeDatas   [][]byte
	// runSrc and runStamps are a relocation run's source pages (indices
	// in their block) and stamps, one block's worth. A GC pass the run
	// triggers reuses them.
	runSrc    []int
	runStamps []blockio.Stamp

	// reqClock is the dependency time of the request currently being
	// processed; flash ops issued for the request chain from it.
	reqClock sim.Micros
	// reqStart is the request's arrival time; lock commands are scheduled
	// from it (they overlap the request's foreground work instead of
	// chaining behind it).
	reqStart sim.Micros

	stats Stats

	inGC bool
}

type chipState struct {
	active       []int // per plane: global block currently written, -1 if none
	frontier     []int // per plane: next page index in the active block
	free         []int // erased, ready blocks (global ids)
	pendingErase []int // invalid-only blocks awaiting lazy erase
	rrOffset     int
	planeCursor  int // round-robin start plane for single-page allocation
}

// isActive reports whether block is an open write frontier on its chip.
func (f *FTL) isActive(cs *chipState, block int) bool {
	return cs.active[f.geo.PlaneOfBlock(block)] == block
}

// New creates an FTL over the target flash.
func New(cfg Config, target Target, policy Policy) (*FTL, error) {
	return NewFrom(nil, cfg, target, policy)
}

// NewFrom is New building on a retired FTL's storage: the mapping and
// status tables, per-block counters, sanitize and lock queues and their
// free lists come from old through adopt.Zeroed where they are large
// enough, and everything else about the result is what New sets — New
// is this body with no donor. old must not be used afterwards; nil is
// allowed.
func NewFrom(old *FTL, cfg Config, target Target, policy Policy) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if target == nil || policy == nil {
		return nil, fmt.Errorf("ftl: target and policy are required")
	}
	// Resolved from the dimensions here, whatever the caller attached: the
	// FTL's address arithmetic never trusts a resolver it did not build.
	g, err := cfg.Geometry.Resolved()
	if err != nil {
		return nil, err
	}
	if old == nil {
		old = &FTL{}
	}
	f := &FTL{
		cfg:          cfg,
		geo:          g,
		target:       target,
		policy:       policy,
		l2p:          adopt.Zeroed(old.l2p, cfg.LogicalPages),
		p2l:          adopt.Zeroed(old.p2l, g.TotalPages()),
		status:       adopt.Zeroed(old.status, g.TotalPages()),
		liveInBlock:  adopt.Zeroed(old.liveInBlock, g.TotalBlocks()),
		usedInBlock:  adopt.Zeroed(old.usedInBlock, g.TotalBlocks()),
		eraseCount:   adopt.Zeroed(old.eraseCount, g.TotalBlocks()),
		lockedBlocks: adopt.Zeroed(old.lockedBlocks, g.TotalBlocks()),
		retired:      adopt.Zeroed(old.retired, g.TotalBlocks()),
		chips:        make([]chipState, g.Chips),
		planes:       g.PlaneCount(),
		pendingPages: adopt.Zeroed(old.pendingPages, g.TotalBlocks()),
		pendingList:  adopt.Zeroed(old.pendingList, 0),
		pendingFree:  adopt.ZeroedEach(old.pendingFree, 0),
		drainFree:    adopt.ZeroedEach(old.drainFree, 0),
		lockq: lockQueue{
			groups:   adopt.Zeroed(old.lockq.groups, 0),
			pagePool: adopt.ZeroedEach(old.lockq.pagePool, 0),
		},

		stripeScratch: adopt.Zeroed(old.stripeScratch, 0),
		stripeOlds:    adopt.Zeroed(old.stripeOlds, 0),
		stripeDatas:   adopt.Zeroed(old.stripeDatas, 0),
		runSrc:        adopt.Zeroed(old.runSrc, g.PagesPerBlock)[:0],
		runStamps:     adopt.Zeroed(old.runStamps, g.PagesPerBlock)[:0],
	}
	f.tracer = cfg.Tracer
	if f.tracer == nil {
		f.tracer = trace.Nop{}
	}
	f.traceOn = f.tracer.Enabled()
	if f.traceOn {
		f.fileOf = adopt.Zeroed(old.fileOf, g.TotalPages())
	}
	if cfg.LockBatch.Enabled {
		f.lockq.groupIdx = adopt.Zeroed(old.lockq.groupIdx, g.TotalWLs())
		f.lockq.pending = adopt.Zeroed(old.lockq.pending, g.TotalPages())
		f.wlMark = adopt.Zeroed(old.wlMark, g.TotalWLs())
	}
	f.statusCount[PageFree] = int64(g.TotalPages())
	for i := range f.l2p {
		f.l2p[i] = NoPPA
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for c := range f.chips {
		cs := &f.chips[c]
		cs.active = make([]int, f.planes)
		cs.frontier = make([]int, f.planes)
		for pl := range cs.active {
			cs.active[pl] = -1
		}
		cs.free = make([]int, 0, g.BlocksPerChip)
		// All blocks start erased and free.
		for b := g.BlocksPerChip - 1; b >= 0; b-- {
			cs.free = append(cs.free, c*g.BlocksPerChip+b)
		}
	}
	return f, nil
}

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// Geometry returns the managed geometry.
func (f *FTL) Geometry() Geometry { return f.geo }

// Status returns the page-status-table entry for a physical page.
func (f *FTL) Status(p PPA) PageStatus { return f.status[p] }

// setStatus is the single page-status transition point; it keeps the
// per-status population counters exact for the telemetry gauges.
func (f *FTL) setStatus(p PPA, st PageStatus) {
	f.statusCount[f.status[p]]--
	f.statusCount[st]++
	f.status[p] = st
}

// Lookup returns the physical page currently mapped to lpa (NoPPA if
// unmapped).
func (f *FTL) Lookup(lpa int64) PPA {
	if lpa < 0 || lpa >= int64(len(f.l2p)) {
		return NoPPA
	}
	return f.l2p[lpa]
}

// LogicalPages returns the exported capacity in pages.
func (f *FTL) LogicalPages() int { return len(f.l2p) }

// Close detaches the FTL from its trace collector (see ssd's Close); it
// must not be used afterwards except as a NewFrom donor.
func (f *FTL) Close() { f.cfg.Tracer, f.tracer, f.traceOn = nil, trace.Nop{}, false }

// Submit executes one host block-I/O request, starting no earlier than
// dep, and returns its completion time.
func (f *FTL) Submit(req blockio.Request, dep sim.Micros) (sim.Micros, error) {
	if err := req.Validate(); err != nil {
		return dep, err
	}
	if req.LPA+int64(req.Pages) > int64(len(f.l2p)) {
		return dep, fmt.Errorf("ftl: request %v beyond logical capacity %d", req, len(f.l2p))
	}
	if len(req.Data) > int(req.Pages)*f.cfg.Geometry.PageBytes {
		return dep, fmt.Errorf("ftl: request %v carries %d payload bytes, more than its pages hold", req, len(req.Data))
	}
	f.reqClock = dep
	f.reqStart = dep
	done := dep
	switch req.Op {
	case blockio.OpRead:
		done = f.readGrouped(req, dep)
	case blockio.OpWrite:
		t, err := f.writeStriped(req, dep)
		if err != nil {
			return t, err
		}
		done = t
	case blockio.OpTrim:
		for i := int64(0); i < int64(req.Pages); i++ {
			f.stats.HostTrimmedPages++
			lpa := req.LPA + i
			if p := f.l2p[lpa]; p != NoPPA {
				f.l2p[lpa] = NoPPA
				f.invalidate(p)
			}
		}
	}
	if f.traceOn {
		// Lock-queue depth as the lock manager sees it, right before the
		// request-level flush drains it: pages awaiting a policy decision
		// plus pages already coalescing in the batching queue.
		f.tracer.Gauge(trace.GaugeLockQueue, f.reqClock, float64(f.pendingCount+f.lockq.count))
	}
	// The request never completes with a secured residue still readable
	// past its deadline.
	f.settle(false)
	if f.reqClock > done {
		done = f.reqClock
	}
	if f.traceOn {
		f.tracer.Gauge(trace.GaugeValidPages, done, float64(f.statusCount[PageValid]))
		f.tracer.Gauge(trace.GaugeSecuredPages, done, float64(f.statusCount[PageSecured]))
		f.tracer.Gauge(trace.GaugeInvalidPages, done, float64(f.statusCount[PageInvalid]))
		f.tracer.Gauge(trace.GaugeFreeBlocks, done, float64(f.FreeBlocks()))
	}
	return done, nil
}

// settle runs the policy's flush, then drains until both sanitize
// queues are empty: fault recovery during a flush (a quarantined failed
// program, an escalation's relocations) can queue fresh sanitize work,
// and a lock flush can in turn re-pend pages (a failed pulse's
// escalation relocates live pages whose stale copies re-enter the
// policy). A host request pulses the lock groups that are due
// (flushDueLocks); a remount pulses all of them (FlushLocks).
func (f *FTL) settle(remount bool) {
	f.policy.Flush(f)
	for i := 0; ; i++ {
		if i >= 1000 {
			if remount {
				panic("ftl: remount sanitize flush did not converge after 1000 rounds")
			}
			panic("ftl: sanitize flush did not converge after 1000 rounds")
		}
		if f.pendingCount > 0 {
			f.policy.Flush(f)
			continue
		}
		if !f.cfg.LockBatch.Enabled || f.lockq.attached == 0 {
			return
		}
		if remount && !f.FlushLocks() || !remount && !f.flushDueLocks() {
			return
		}
	}
}

// storeAt programs data onto the already-allocated page p, running the
// failed-program retry ladder (quarantine the consumed page, retry on a
// fresh one), then commits the mapping and invalidates the overwritten
// copy.
func (f *FTL) storeAt(p PPA, lpa int64, secure bool, file uint64, data []byte, dep sim.Micros) (sim.Micros, error) {
	old := f.l2p[lpa]
	f.stats.FlashPrograms++
	done, perr := f.target.Program(p, data, f.stamp(lpa, secure), dep)
	retries := 0
	for perr != nil {
		f.quarantineFailedProgram(p, secure, file, done)
		if retries+1 >= maxProgramAttempts {
			return done, fmt.Errorf("ftl: program for lpa %d failed %d times: %w", lpa, retries+1, perr)
		}
		retries++
		f.stats.ProgramRetries++
		var err error
		if p, err = f.allocate(); err != nil {
			return done, err
		}
		f.stats.FlashPrograms++
		done, perr = f.target.Program(p, data, f.stamp(lpa, secure), done)
	}
	f.commitWrite(p, lpa, secure, file)
	// Invalidate the overwritten copy after the new data is durable.
	if old != NoPPA {
		f.invalidate(old)
	}
	f.maybeGC(f.geo.ChipOf(p))
	return done, nil
}

// stamp is the spare-area stamp of the next program of lpa: it takes the
// next write sequence number, which the program's success commits
// (writeSeq++). Only successful programs are stamped — quarantined and
// power-cut-torn pages keep none, which is how the remount scan tells a
// torn write from committed data — so sequence numbers have no gaps.
func (f *FTL) stamp(lpa int64, secure bool) blockio.Stamp {
	return blockio.Stamp{LPA: lpa, Seq: f.writeSeq + 1, Secure: secure}
}

// commitWrite publishes the mapping for a freshly-programmed host page.
func (f *FTL) commitWrite(p PPA, lpa int64, secure bool, file uint64) {
	f.writeSeq++
	f.l2p[lpa] = p
	f.p2l[p] = lpa
	if f.traceOn {
		f.fileOf[p] = file
	}
	if secure {
		f.setStatus(p, PageSecured)
	} else {
		f.setStatus(p, PageValid)
	}
	f.liveInBlock[f.geo.BlockOf(p)]++
	// The initial physical copy of the secret (GC and ladder relocations
	// register further copies).
	f.noteCopy(p, audit.NoSrc, lpa, file, secure, audit.OriginHost, f.reqStart)
}

// readGrouped serves a host read with multi-plane grouping: consecutive
// mapped pages that land on distinct planes of one chip share a single
// tREAD (the bus transfers still serialize per page). On one plane every
// group is one page, read plainly.
func (f *FTL) readGrouped(req blockio.Request, dep sim.Micros) sim.Micros {
	done := dep
	group := f.lockq.takePages(f.planes)
	chip := -1
	var planeMask uint64
	for i := int64(0); i < int64(req.Pages); i++ {
		f.stats.HostReadPages++
		p := f.l2p[req.LPA+i]
		if p == NoPPA {
			continue
		}
		c := f.geo.ChipOf(p)
		pl := uint64(1) << uint(f.geo.PlaneOfBlock(f.geo.BlockOf(p)))
		if len(group) > 0 && (c != chip || planeMask&pl != 0) {
			done = f.flushReadGroup(group, dep, done)
			group, planeMask = group[:0], 0
		}
		chip = c
		planeMask |= pl
		group = append(group, p)
		if len(group) == f.planes {
			done = f.flushReadGroup(group, dep, done)
			group, planeMask = group[:0], 0
		}
	}
	done = f.flushReadGroup(group, dep, done)
	f.lockq.recycle(group)
	return done
}

// flushReadGroup issues one accumulated read group (single-page groups
// fall back to a plain read) and folds its completion into done.
func (f *FTL) flushReadGroup(group []PPA, dep, done sim.Micros) sim.Micros {
	switch {
	case len(group) == 0:
	case len(group) == 1:
		f.stats.FlashReads++
		if t := f.target.Read(group[0], dep); t > done {
			done = t
		}
	default:
		f.stats.FlashReads += uint64(len(group))
		f.stats.ReadGroups++
		f.stats.GroupedReads += uint64(len(group))
		if t := f.target.ReadGroup(group, dep); t > done {
			done = t
		}
	}
	return done
}

// writeStriped serves a host write with multi-plane striping: up to
// Planes consecutive pages are allocated on distinct planes of one chip
// and programmed under a single shared tPROG. A page that gets no
// stripe of two or more is appended alone (§2.2 Fig. 3 flow): on one
// plane every page is. Mappings for every page of a stripe are
// committed before any failure recovery or GC runs, so a reentrant
// flush never observes a chip-programmed page that the mapping tables
// still call free.
func (f *FTL) writeStriped(req blockio.Request, dep sim.Micros) (sim.Micros, error) {
	done := dep
	secure := !req.Insecure
	n := int(req.Pages)
	datas := f.stripeDatas[:0]
	defer func() {
		for k := range datas {
			datas[k] = nil // drop payload references between requests
		}
		f.stripeDatas = datas[:0]
	}()
	for i := 0; i < n; {
		var stripe []PPA
		if want := min(f.planes, n-i); want > 1 {
			stripe = f.allocateStripe(want)
		}
		if len(stripe) <= 1 {
			// One page alone: on one plane, the request's last page, the
			// one free plane the allocator found (already consumed), or
			// none, where the plain allocation surfaces its error. storeAt
			// retries a failed program on a fresh page.
			f.stats.HostWrittenPages++
			var p PPA
			var err error
			if len(stripe) == 1 {
				p = stripe[0]
			} else if p, err = f.allocate(); err != nil {
				return done, err
			}
			t, err := f.storeAt(p, req.LPA+int64(i), secure, req.FileID, req.PageData(i), dep)
			if err != nil {
				return done, err
			}
			if t > done {
				done = t
			}
			i++
			continue
		}
		datas = datas[:0]
		for k := range stripe {
			datas = append(datas, req.PageData(i+k))
		}
		f.stats.HostWrittenPages += uint64(len(stripe))
		f.stats.FlashPrograms += uint64(len(stripe))
		f.stats.ProgramGroups++
		f.stats.GroupedPrograms += uint64(len(stripe))
		gdone, errs := f.target.ProgramGroup(stripe, datas, f.stamp(req.LPA+int64(i), secure), dep)
		if gdone > done {
			done = gdone
		}
		// Commit every successful page before touching recovery or GC:
		// commitWrite has no reentrant paths, so the whole stripe becomes
		// visible atomically with respect to fault handling (a reentrant
		// flush must never observe a chip-programmed page that the mapping
		// tables still call free — bLock escalation would seal it).
		olds := f.stripeOlds[:0]
		for k, p := range stripe {
			lpa := req.LPA + int64(i+k)
			olds = append(olds, f.l2p[lpa])
			if errs[k] == nil {
				f.commitWrite(p, lpa, secure, req.FileID)
			}
		}
		f.stripeOlds = olds
		for k, p := range stripe {
			lpa := req.LPA + int64(i+k)
			if errs[k] != nil {
				// The consumed page holds a partial payload: quarantine it
				// and retry this logical page on a fresh single page
				// (storeAt re-reads the — still uncommitted — old mapping
				// and invalidates it itself).
				f.quarantineFailedProgram(p, secure, req.FileID, gdone)
				f.stats.ProgramRetries++
				np, err := f.allocate()
				if err != nil {
					return done, err
				}
				t, err := f.storeAt(np, lpa, secure, req.FileID, req.PageData(i+k), gdone)
				if err != nil {
					return done, err
				}
				if t > done {
					done = t
				}
				continue
			}
			// Invalidate the overwritten copy now that the new data (and
			// the rest of the stripe) is durable and mapped.
			if old := f.stripeOlds[k]; old != NoPPA {
				f.invalidate(old)
			}
		}
		f.maybeGC(f.geo.ChipOf(stripe[0]))
		i += len(stripe)
	}
	return done, nil
}

// invalidate transitions a live physical page to stale and routes it
// through the sanitization policy ( 1 – 4 in Fig. 13).
func (f *FTL) invalidate(p PPA) {
	st := f.status[p]
	if !st.Live() {
		return
	}
	f.liveInBlock[f.geo.BlockOf(p)]--
	f.p2l[p] = -1
	f.noteInvalidated(p, st == PageSecured, f.reqStart)
	f.policy.Invalidate(f, p, st == PageSecured)
}

// --- primitives exposed to sanitization policies -----------------------

// MarkInvalid finalizes the status-table transition to invalid.
func (f *FTL) MarkInvalid(p PPA) { f.setStatus(p, PageInvalid) }

// IssuePLock emits a pLock for a stale page, which the status table
// already holds invalid. The lock occupies the chip but does not gate the
// host request's completion: the lock manager overlaps locks with
// foreground work.
//
// A failed pLock cannot be retried — the one-shot pulse spent the flag
// cells' single program opportunity — so it escalates to a bLock of the
// whole block (relocating any live pages out first).
func (f *FTL) IssuePLock(p PPA) {
	block := f.geo.BlockOf(p)
	if f.lockedBlocks[block] || f.retired[block] {
		// An earlier escalation or retirement already destroyed every
		// stale page of this block, this one included.
		return
	}
	if f.status[p] != PageInvalid {
		// The stale copy no longer exists: an erase or retirement got to
		// the block first (e.g. a reentrant GC flush while this batch was
		// being drained) and the page may even hold new data. Locking it
		// would destroy a free or live page.
		return
	}
	f.stats.PLocks++
	done, err := f.target.PLock(p, f.reqStart)
	if err != nil {
		f.stats.PLockFailures++
		f.markFault(trace.OpPLockFail, block, f.geo.PageInBlock(p), done)
		f.escalateToBLock(block)
		return
	}
	f.noteDestroyed(p, audit.CausePLock, f.reqStart, done)
}

// IssueBLock emits a bLock covering every stale page of the block; the
// given pages are marked invalid. A failed bLock falls back to forced
// copy-out + erase — the block is fully stale here (the §6 decision
// rule's precondition), so the "copy-out" part is already satisfied and
// the erase destroys the data instead (retiring the block if the erase
// fails too).
func (f *FTL) IssueBLock(block int, pages []PPA) {
	if f.lockedBlocks[block] || f.retired[block] {
		return
	}
	// Keep only the pages whose stale copy still exists. A reentrant
	// flush (GC triggered by a relocation) may have erased the block —
	// and the allocator may have reopened it — after this batch was
	// drained; locking a free or refilled block would brick live pages.
	stale := make([]PPA, 0, len(pages))
	for _, p := range pages {
		if f.status[p] == PageInvalid {
			stale = append(stale, p)
		}
	}
	if len(stale) == 0 {
		return
	}
	if !f.BlockFullyStale(block) {
		for _, p := range stale {
			f.IssuePLock(p)
		}
		return
	}
	f.lockBlock(block)
}

// lockBlock bLocks a fully stale block; a failed bLock falls back to a
// recovery erase.
func (f *FTL) lockBlock(block int) {
	f.stats.BLocks++
	done, err := f.target.BLock(block, f.reqStart)
	if err != nil {
		f.stats.BLockFailures++
		f.markFault(trace.OpBLockFail, block, -1, done)
		f.recoveryErase(block)
		return
	}
	f.lockedBlocks[block] = true
	// The bLock disables the whole block, not just the pages a batch
	// asked for: evacuation-stale copies (relocatePage with sanitizeOld
	// off marks them invalid without pending them) die with it too, so
	// destruction is reported block-wide — otherwise their audit windows
	// and per-file stale counts would never close.
	f.destroyStale(block, done, audit.CauseBLock, f.reqStart)
}

// IssueScrub destroys a page's wordline in place (scrSSD baseline).
// Scrubbing merges the Vth states of the whole wordline, so every stale
// page sharing it is destroyed along with the target; callers must have
// relocated the live siblings first. If the wordline is still open (the
// block's write frontier sits inside it), its free slots are wasted: the
// scrub pulse programs them to garbage, so the allocator skips past the
// wordline — a real cost of scrubbing the write frontier.
func (f *FTL) IssueScrub(p PPA) {
	f.stats.Scrubs++
	done := f.target.Scrub(p, f.reqStart)
	first := f.geo.WLStart(p)
	block := f.geo.BlockOf(p)
	cs := &f.chips[f.geo.ChipOfBlock(block)]
	pl := f.geo.PlaneOfBlock(block)
	wlStart := int(first - f.geo.FirstPPA(block))
	wlEnd := wlStart + f.geo.PagesPerWL
	if cs.active[pl] == block && cs.frontier[pl] > wlStart && cs.frontier[pl] < wlEnd {
		f.usedInBlock[block] += int32(wlEnd - cs.frontier[pl])
		cs.frontier[pl] = wlEnd
	}
	for s := first; s < first+PPA(f.geo.PagesPerWL); s++ {
		if s != p && f.status[s].Live() {
			panic(fmt.Sprintf("ftl: scrubbing wordline of page %d would destroy live page %d", p, s))
		}
		f.setStatus(s, PageInvalid)
		f.noteDestroyed(s, audit.CauseScrub, f.reqStart, done)
	}
}

// PendSanitize queues a secured page for the lock manager's batched
// decision at Flush time (secSSD policies).
func (f *FTL) PendSanitize(p PPA) {
	b := f.geo.BlockOf(p)
	if f.pendingPages[b] == nil {
		// The list may already carry a stale entry for b (from an erase
		// that cancelled the block's queue); DrainPending dedupes on the
		// nil check, so appending again is harmless.
		f.pendingList = append(f.pendingList, b)
		if n := len(f.pendingFree); n > 0 {
			f.pendingPages[b] = f.pendingFree[n-1]
			f.pendingFree = f.pendingFree[:n-1]
		}
	}
	f.pendingPages[b] = append(f.pendingPages[b], p)
	f.pendingCount++
}

// clearPending drops a block's queued sanitize work (erase or retirement
// destroyed the stale copies already). The pendingList entry is left for
// DrainPending to skip.
func (f *FTL) clearPending(block int) {
	if ps := f.pendingPages[block]; ps != nil {
		f.pendingCount -= len(ps)
		f.pendingPages[block] = nil
		f.pendingFree = append(f.pendingFree, ps[:0])
	}
}

// PendingBlock is one block's queued secured invalidations.
type PendingBlock struct {
	Block int
	Pages []PPA // in invalidation order
}

// DrainPending returns and clears the pending sanitize sets, ordered by
// block index. The deterministic order matters: policies issue lock and
// erase commands while iterating, and unordered iteration would make
// simulated timing vary run to run. Ownership of the result and of each
// Pages slice moves to the caller until it hands them back with
// ReleasePending: policies iterate the result while relocations can
// reentrantly queue and drain more work, and a reentrant drain never
// sees a slice that is still out.
func (f *FTL) DrainPending() []PendingBlock {
	if f.pendingCount == 0 {
		f.pendingList = f.pendingList[:0]
		return nil
	}
	slices.Sort(f.pendingList)
	var out []PendingBlock
	if n := len(f.drainFree); n > 0 {
		out = f.drainFree[n-1]
		f.drainFree = f.drainFree[:n-1]
	}
	for _, b := range f.pendingList {
		pages := f.pendingPages[b]
		if pages == nil {
			// Cancelled by an erase/retirement, or a duplicate list entry.
			continue
		}
		f.pendingPages[b] = nil
		out = append(out, PendingBlock{Block: b, Pages: pages})
	}
	f.pendingList = f.pendingList[:0]
	f.pendingCount = 0
	return out
}

// ReleasePending hands a DrainPending result back for reuse once the
// policy has finished iterating it; the result and its Pages slices must
// not be used afterwards. A flush that unwinds without releasing (a
// power cut) only costs the next drain an allocation.
func (f *FTL) ReleasePending(drained []PendingBlock) {
	if drained == nil {
		return
	}
	for _, pb := range drained {
		f.pendingFree = append(f.pendingFree, pb.Pages[:0])
	}
	clear(drained)
	f.drainFree = append(f.drainFree, drained[:0])
}

// BlockFullyStale reports whether no live pages remain in the block and
// the block has been fully written (so bLock sanitizes only stale data
// and no future program will target it before erase).
func (f *FTL) BlockFullyStale(block int) bool {
	return f.liveInBlock[block] == 0 &&
		int(f.usedInBlock[block]) == f.geo.PagesPerBlock
}

// LiveInBlock reports how many live pages the block currently holds.
func (f *FTL) LiveInBlock(block int) int { return int(f.liveInBlock[block]) }

// RelocateLive moves every live page out of the block (read + program
// elsewhere), remapping L2P. The old copies are NOT routed through the
// sanitization policy — callers destroy the whole block right after
// (erSSD) — but are reported stale. Returns the number moved.
func (f *FTL) RelocateLive(block int) int {
	first := f.geo.FirstPPA(block)
	moved := f.relocate(first, first+PPA(f.geo.PagesPerBlock), NoPPA, audit.OriginEvacuate)
	f.stats.SanitizeCopies += uint64(moved)
	return moved
}

// RelocateWLSiblings moves the live pages that share p's wordline
// (excluding p itself) so the wordline can be scrubbed (scrSSD). Returns
// the number moved.
func (f *FTL) RelocateWLSiblings(p PPA) int {
	first := f.geo.WLStart(p)
	moved := f.relocate(first, first+PPA(f.geo.PagesPerWL), p, audit.OriginEvacuate)
	f.stats.SanitizeCopies += uint64(moved)
	return moved
}

// relocate is the one relocation loop of GC and both evacuations: it
// copies every live page of [first, end), one block's pages, except skip
// to a fresh page — on the source's chip while it has room, as copyback
// commands — and returns the number moved. GC (OriginGC) routes each
// stale copy through the policy; an evacuation (OriginEvacuate) only
// marks it invalid, because the caller destroys the range next.
//
// Live pages bound for consecutive pages of one destination block on the
// source's chip go as one CopybackRun; the landed pages' bookkeeping
// follows in page order, each page's at the time its own copy ended,
// then maybeGC once. Bookkeeping issues no chip command
// (Policy.Invalidate only marks and queues), so everything ends as a
// page-at-a-time loop leaves it, and a collector sees the same copies at
// the same times. Each page's bookkeeping completes before the next
// page's chip command — a run is one page — on multi-plane devices,
// while GC is due outside a GC pass, when the destination is the source
// block or on another chip, and while a power cut is armed (the target's
// choice). The status check is per page because a GC pass a run
// triggered may have moved later pages. A failed program quarantines its
// destination and retries the page on a fresh one.
func (f *FTL) relocate(first, end, skip PPA, origin audit.Origin) int {
	block := f.geo.BlockOf(first)
	base := f.geo.FirstPPA(block)
	chip := f.geo.ChipOfBlock(block)
	moved, retries := 0, 0
	for p := first; p < end; {
		if p == skip || !f.status[p].Live() {
			p++
			continue
		}
		np, sameChip := f.allocateNear(chip)
		dblock := f.geo.BlockOf(np)
		room := 1
		if sameChip && f.planes == 1 && dblock != block &&
			(f.inGC || f.reusableBlocks(chip) >= f.cfg.GCFreeBlocksLow) {
			room = f.geo.PagesPerBlock - f.geo.PageInBlock(np)
		}
		// The run: the next live pages, as many as the destination block
		// has room for, each stamped with the sequence number it takes if
		// every copy before it lands.
		src, stamps := f.runSrc[:0], f.runStamps[:0]
		for q := p; q < end && len(src) < room; q++ {
			if st := f.status[q]; q != skip && st.Live() {
				src = append(src, int(q-base))
				stamps = append(stamps, blockio.Stamp{LPA: f.p2l[q], Seq: f.writeSeq + uint64(len(src)), Secure: st == PageSecured})
			}
		}
		f.runSrc, f.runStamps = src, stamps
		var start, done sim.Micros
		var n int
		var perr error
		if sameChip {
			start, done, n, perr = f.target.CopybackRun(block, src, np, stamps, f.reqClock)
		} else if done, perr = f.target.Move(p, np, stamps[0], f.reqClock); perr == nil {
			n = 1
		}
		copies := n
		if perr != nil {
			copies++
		}
		f.stats.FlashReads += uint64(copies)
		f.stats.FlashPrograms += uint64(copies)
		f.stats.GCCopies += uint64(copies)
		if sameChip {
			f.stats.Copybacks += uint64(copies)
		}
		// The destination keeps the pages the copies consumed; allocateNear
		// took the first. (A run of more than one page is single-plane.)
		f.chips[chip].frontier[0] += copies - 1
		f.usedInBlock[dblock] += int32(copies - 1)
		f.writeSeq += uint64(n)
		if done > f.reqClock {
			f.reqClock = done
		}
		// Copy i ends copies-1-i copy times before the run does (a Move is
		// one copy, ending at done).
		each := (done - start) / sim.Micros(copies)
		for i, pg := range src[:n] {
			f.commitCopy(base+PPA(pg), np+PPA(i), block, dblock, origin, done-sim.Micros(copies-1-i)*each)
		}
		moved += n
		if n > 0 {
			retries = 0
		}
		// The next page is read off the run before any GC pass, which
		// relocates with the same scratch.
		if n < len(src) {
			p = base + PPA(src[n])
		} else {
			p = base + PPA(src[n-1]) + 1
		}
		if perr != nil {
			// The failed program consumed its destination; quarantine it and
			// retry the page (still intact and mapped) on a fresh one.
			var file uint64
			if f.traceOn {
				file = f.fileOf[p]
			}
			f.quarantineFailedProgram(np+PPA(n), f.status[p] == PageSecured, file, done)
			if retries++; retries >= maxProgramAttempts {
				panic(fmt.Sprintf("ftl: relocation of page %d failed %d times: %v", p, retries, perr))
			}
			f.stats.ProgramRetries++
			continue
		}
		// Sanitization-driven relocations (erSSD evacuations, scrSSD sibling
		// moves) consume free pages outside the host-write path; keep the
		// free-block floor here too. maybeGC is a no-op during GC itself.
		f.maybeGC(f.geo.ChipOfBlock(dblock))
	}
	return moved
}

// commitCopy is the bookkeeping of relocation copy q → np, whose copy
// ended at at: remap, status, live counts, then the stale copy, through
// the policy for GC.
func (f *FTL) commitCopy(q, np PPA, block, dblock int, origin audit.Origin, at sim.Micros) {
	st := f.status[q]
	lpa, secure := f.p2l[q], st == PageSecured
	if lpa >= 0 {
		f.l2p[lpa] = np
	}
	f.p2l[np] = lpa
	f.setStatus(np, st)
	f.liveInBlock[dblock]++
	f.liveInBlock[block]--
	f.p2l[q] = -1
	if f.traceOn {
		f.fileOf[np] = f.fileOf[q]
		f.noteCopy(np, uint32(q), lpa, f.fileOf[np], secure, origin, at)
		f.noteInvalidated(q, secure, at)
	}
	if origin == audit.OriginGC {
		f.policy.Invalidate(f, q, secure)
	} else {
		f.setStatus(q, PageInvalid)
	}
}

// EraseNow erases a block immediately (erSSD). Every page becomes free
// and its stale data is destroyed. The block moves to the free list (and
// off the lazy-erase queue, where GC may already have parked it) —
// unless the erase failed, in which case eraseBlock retired the block
// and it joins no list.
func (f *FTL) EraseNow(block int) {
	cs := &f.chips[f.geo.ChipOfBlock(block)]
	if f.retired[block] || f.freeContains(cs, block) {
		// Already retired, or already erased and freed (a reentrant flush
		// from a relocation-triggered GC got here first): nothing stale
		// remains to destroy, and a second free-list entry would let the
		// allocator open the block twice.
		return
	}
	ok := f.eraseBlock(block)
	if pl := f.geo.PlaneOfBlock(block); cs.active[pl] == block {
		cs.active[pl] = -1
		cs.frontier[pl] = 0
	}
	for i, b := range cs.pendingErase {
		if b == block {
			cs.pendingErase = append(cs.pendingErase[:i], cs.pendingErase[i+1:]...)
			break
		}
	}
	if ok {
		cs.free = append(cs.free, block)
	}
}

// eraseBlock issues the erase and reconciles the status table. It
// reports false when the erase failed: the block is then retired (with
// its stale data scrubbed) instead of becoming free.
func (f *FTL) eraseBlock(block int) bool {
	f.stats.Erases++
	issued := f.reqClock
	eraseDone, eerr := f.target.Erase(block, f.reqClock)
	if eraseDone > f.reqClock {
		f.reqClock = eraseDone
	}
	if eerr != nil {
		f.stats.EraseFailures++
		f.markFault(trace.OpEraseFail, block, -1, eraseDone)
		f.retireBlock(block, eraseDone)
		return false
	}
	first := f.geo.FirstPPA(block)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		p := first + PPA(i)
		if f.status[p].Live() {
			panic(fmt.Sprintf("ftl: erasing block %d with live page %d", block, p))
		}
		if f.traceOn && f.status[p] == PageInvalid {
			f.noteDestroyed(p, audit.CauseErase, issued, eraseDone)
		}
		f.setStatus(p, PageFree)
		f.p2l[p] = -1
	}
	if f.traceOn {
		clear(f.fileOf[first : first+PPA(f.geo.PagesPerBlock)])
	}
	f.liveInBlock[block] = 0
	f.usedInBlock[block] = 0
	f.eraseCount[block]++
	f.lockedBlocks[block] = false
	f.clearPending(block)
	f.cancelQueuedLocks(block)
	return true
}
