// Channel-sharded deferred execution (-shard-channels).
//
// The timing model is already coordinator-side: every Target method
// computes its Timeline reservations, trace events and completion times
// from configuration constants, never from what the chip returns. The
// chip calls are infallible too: any chip error is a flash-discipline
// violation, which panics in both modes, and fault verdicts — the one
// outcome the FTL's recovery ladder needs synchronously — are drawn on
// the coordinator by the fault oracle (oracle.go) before the record is
// posted. So the chip-state mutation — vth sampling, read-disturb
// bookkeeping, page copies — is the only work a Target call does that
// anything downstream waits for. This file defers exactly that work
// onto sim.Lanes: one FIFO worker per shard, chips statically
// partitioned across lanes channel-major (each channel's chips stay
// together, so a lane's flush barrier maps to a bus-arbitration domain),
// per-chip op order preserved because a chip never changes lanes.
//
// Determinism: the coordinator's arithmetic is untouched, each chip sees
// the identical op sequence with identical arguments (including the
// `now` timestamps its retention stamps and RNG draws depend on), chips
// share no state, and in fault mode every injector draw happens on the
// coordinator in call order — the serial schedule, stream for stream.
// A sharded run is therefore bit-identical to a serial one — reports,
// traces, audit ledgers, OpenMetrics exports, fault censuses and
// forensic chip dumps. The golden tests in shard_test.go and
// internal/experiment assert this end to end.
//
// Synchronization points: a Target.Read that must return data (GC
// relocation) flushes the owning chip's lane first, as do the rare
// failed-copyback corruption path and the ProgramGroup payload
// fallback; ReadLogical, Chips and FaultCounts drain every lane. Host
// reads go through the ftl.DiscardReader interface and stay deferred —
// the oracle pre-decides their retry count, which rides in the record.

package ssd

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Deferred chip-op record kinds (sim.Record.Kind).
const (
	opProgram sim.OpKind = iota + 1
	opProgramMulti
	opReadDiscard
	opReadMulti
	opPLock
	opPLockWL
	opBLock
	opErase
	opScrub
	opCopyback
	opStampMeta
	opStampMetaGroup
)

// laneDepth is the per-lane queue depth: deep enough to keep a lane busy
// across the coordinator's bookkeeping, small enough to bound the drift
// between coordinator and chips.
const laneDepth = 256

// attemptShift packs a deferred group read's per-page retry count into
// the high bits of its packed page id (ids are chip-local page numbers,
// < 2^24 for every modeled geometry; retry counts are < 4).
const (
	attemptShift = 24
	pageIdMask   = 1<<attemptShift - 1
)

// shardExec owns the deferred-execution machinery of one SSD.
type shardExec struct {
	s      *SSD
	lanes  *sim.Lanes
	laneOf []int32
	bufs   *sim.BytePool // program payload copies
	slots  *sim.SlotPool // pLock slot / packed page-id vectors

	// Per-lane decode scratch. Each slice is touched only by its lane's
	// worker, never by the coordinator while the lane is running.
	slotInts [][]int
	addrs    [][]nand.PageAddr
	datas    [][][]byte
}

func newShardExec(s *SSD, lanes int) *shardExec {
	nChips := len(s.chips)
	if lanes > nChips {
		lanes = nChips
	}
	x := &shardExec{
		s:        s,
		laneOf:   make([]int32, nChips),
		bufs:     sim.NewBytePool(4*lanes, s.cfg.Chip.PageBytes),
		slots:    sim.NewSlotPool(4*lanes, s.geo.PagesPerWL*s.geo.Planes),
		slotInts: make([][]int, lanes),
		addrs:    make([][]nand.PageAddr, lanes),
		datas:    make([][][]byte, lanes),
	}
	// Static chip→lane partition, channel-major: each channel's chips
	// map into one contiguous band of lanes, so a chip flush only ever
	// waits on work from its own bus-arbitration domain. Any fixed
	// mapping is correct (chips share no state, and the buses live on
	// the coordinator's timelines); this one minimizes cross-channel
	// barrier coupling.
	nCh := s.cfg.Channels
	for chip := range x.laneOf {
		ch := chip / s.cfg.ChipsPerChannel
		lo := ch * lanes / nCh
		hi := (ch + 1) * lanes / nCh
		if hi <= lo {
			// More channels than lanes: whole channels share a lane.
			x.laneOf[chip] = int32(lo)
			continue
		}
		// Lanes >= channels: spread the channel's chips across its band.
		x.laneOf[chip] = int32(lo + (chip%s.cfg.ChipsPerChannel)%(hi-lo))
	}
	x.lanes = sim.NewLanes(lanes, laneDepth, x.exec)
	return x
}

func (x *shardExec) post(chip int, r sim.Record) {
	r.Chip = int32(chip)
	x.lanes.Post(int(x.laneOf[chip]), r)
}

// flushChip waits for every deferred op on chip's lane (the lane is
// FIFO, so this is at least chip-complete).
func (x *shardExec) flushChip(chip int) { x.lanes.Flush(int(x.laneOf[chip])) }

// exec runs one deferred record on its lane worker. Errors from the chip
// are impossible here by construction (chips run draw-free; fault
// verdicts are pre-decided by the coordinator's oracle and ride in the
// record), so every error is a discipline violation and panics —
// matching the serial path's fail-fast behavior, re-raised on the
// coordinator by sim.Lanes. A verdict of "failed" (Page2 == 1 on the
// lock/erase kinds) replays the failure's state effects through the
// chip's Apply*Fail entry points.
func (x *shardExec) exec(lane int, r sim.Record) {
	chip := x.s.chips[r.Chip]
	now := sim.Micros(r.Aux)
	a := nand.PageAddr{Block: int(r.Block), Page: int(r.Page)}
	switch r.Kind {
	case opProgram:
		_, err := chip.Program(a, r.Data, now)
		if r.Data != nil {
			x.bufs.Put(r.Data)
		}
		must(err, "program", a)
	case opReadDiscard:
		// Block2 carries the oracle's attempt count (1 when fault-free):
		// each retry re-runs the read's disturb bookkeeping, exactly as
		// the serial retry loop does.
		n := int32(1)
		if r.Block2 > 1 {
			n = r.Block2
		}
		for i := int32(0); i < n; i++ {
			_, err := chip.Read(a, now)
			must(err, "read", a)
		}
	case opPLock:
		if r.Page2 == 1 {
			must(chip.ApplyPLockFail(a), "pLock fail", a)
			break
		}
		_, err := chip.PLock(a, now)
		must(err, "pLock", a)
	case opPLockWL:
		ints := x.slotInts[lane][:0]
		for _, s := range r.Slots {
			ints = append(ints, int(s))
		}
		x.slotInts[lane] = ints
		if r.Page2 == 1 {
			must(chip.ApplyPLockWLFail(int(r.Block), int(r.Page), ints), "pLockWL fail", a)
			x.slots.Put(r.Slots)
			break
		}
		_, err := chip.PLockWL(int(r.Block), int(r.Page), ints, now)
		x.slots.Put(r.Slots)
		must(err, "pLockWL", a)
	case opBLock:
		if r.Page2 == 1 {
			must(chip.ApplyBLockFail(int(r.Block)), "bLock fail", a)
			break
		}
		_, err := chip.BLock(int(r.Block), now)
		must(err, "bLock", a)
	case opErase:
		if r.Page2 == 1 {
			must(chip.ApplyEraseFail(int(r.Block)), "erase fail", a)
			break
		}
		_, err := chip.Erase(int(r.Block), now)
		must(err, "erase", a)
	case opScrub:
		_, err := chip.Scrub(a, now)
		must(err, "scrub", a)
	case opCopyback:
		dst := nand.PageAddr{Block: int(r.Block2), Page: int(r.Page2)}
		_, err := chip.Copyback(a, dst, now)
		must(err, "copyback", a)
	case opStampMeta:
		// Aux packs lpa<<1|secure (no timestamp: stamps are untimed);
		// Block2/Page2 carry the write sequence's high and low halves.
		seq := uint64(uint32(r.Block2))<<32 | uint64(uint32(r.Page2))
		err := chip.StampOOB(a, nand.OOBMeta{
			LPA:    r.Aux >> 1,
			Seq:    seq,
			Secure: r.Aux&1 == 1,
		})
		must(err, "stampMeta", a)
	case opStampMetaGroup:
		// A whole stripe's stamps in one record (the FTL's group fast
		// path): Slots carry the packed page ids in stripe order, Aux
		// packs lpa0<<1|secure, Block2/Page2 the first sequence number's
		// halves; each page k stamps (lpa0+k, seq0+k) — value-for-value
		// the per-page opStampMeta records this replaces.
		seq0 := uint64(uint32(r.Block2))<<32 | uint64(uint32(r.Page2))
		lpa0 := r.Aux >> 1
		secure := r.Aux&1 == 1
		addrs, _ := x.unpack(lane, r.Slots)
		for i, pa := range addrs {
			err := chip.StampOOB(pa, nand.OOBMeta{
				LPA: lpa0 + int64(i), Seq: seq0 + uint64(i), Secure: secure,
			})
			must(err, "stampMetaGroup", pa)
		}
		x.slots.Put(r.Slots)
	case opProgramMulti:
		addrs, datas := x.unpack(lane, r.Slots)
		_, errs, fatal := chip.ProgramMulti(addrs, datas, now)
		x.slots.Put(r.Slots)
		must(fatal, "programMulti", a)
		for i, err := range errs {
			must(err, "programMulti page", addrs[i])
		}
	case opReadMulti:
		addrs, _ := x.unpack(lane, r.Slots)
		_, errs, fatal := chip.ReadMulti(addrs, now)
		must(fatal, "readMulti", a)
		for i, err := range errs {
			must(err, "readMulti page", addrs[i])
		}
		// High bits of each packed id carry the oracle's extra attempt
		// count; replay the retries' disturb bookkeeping per page in
		// plane order, as the serial retry loop would.
		for i, id := range r.Slots {
			for k := int32(0); k < id>>attemptShift; k++ {
				_, err := chip.Read(addrs[i], now)
				must(err, "readMulti retry", addrs[i])
			}
		}
		x.slots.Put(r.Slots)
	default:
		panic(fmt.Sprintf("ssd: unknown deferred op kind %d", r.Kind))
	}
}

// unpack decodes packed chip-local page ids (see pack; low attemptShift
// bits — the high bits may carry retry counts) into the lane's address
// scratch, plus a matching all-nil datas slice.
func (x *shardExec) unpack(lane int, packed []int32) ([]nand.PageAddr, [][]byte) {
	addrs := x.addrs[lane][:0]
	datas := x.datas[lane][:0]
	for _, id := range packed {
		_, block, page := x.s.geo.Locate(ftl.PPA(id & pageIdMask))
		addrs = append(addrs, nand.PageAddr{Block: block, Page: page})
		datas = append(datas, nil)
	}
	x.addrs[lane] = addrs
	x.datas[lane] = datas
	return addrs, datas
}

func must(err error, op string, a nand.PageAddr) {
	if err != nil {
		panic(fmt.Sprintf("ssd: deferred %s at %v: %v", op, a, err))
	}
}

// pack encodes a chip-local address as one int32 page id: the page's
// number within its chip, which is the PPA the same address has on chip 0.
func (x *shardExec) pack(a nand.PageAddr) int32 {
	return int32(x.s.geo.PPAOf(0, a.Block, a.Page))
}

// Drain blocks until every deferred chip operation has executed. It is
// the barrier before anything inspects chip state directly (forensic
// dumps, logical reads, fault census) and a no-op on serial devices.
func (s *SSD) Drain() {
	if s.shard != nil {
		s.shard.lanes.FlushAll()
	}
}

// Close drains and stops the lane workers. The device remains usable in
// serial mode afterwards; Close on a serial device is a no-op.
func (s *SSD) Close() {
	if s.shard != nil {
		s.shard.lanes.Close()
		s.shard = nil
	}
}

// Sharded reports whether deferred channel-sharded execution is active.
func (s *SSD) Sharded() bool { return s.shard != nil }

// ShardStats is a snapshot of the deferred-execution machinery: how many
// records each lane executed and which chips it owns. A lopsided Posted
// distribution means the static chip→lane partition is starving workers —
// the first thing to look at when a sharded run fails to scale.
type ShardStats struct {
	Lanes  int      `json:"lanes"`
	Posted []uint64 `json:"posted_per_lane"` // deferred records executed, by lane
	LaneOf []int    `json:"lane_of_chip"`    // chip index -> owning lane
}

// ShardStatsSnapshot captures the lane utilization counters. Must be
// called before Close (Close discards the machinery); returns the zero
// value on a serial device.
func (s *SSD) ShardStatsSnapshot() ShardStats {
	if s.shard == nil {
		return ShardStats{}
	}
	st := ShardStats{
		Lanes:  s.shard.lanes.N(),
		Posted: make([]uint64, s.shard.lanes.N()),
		LaneOf: make([]int, len(s.shard.laneOf)),
	}
	for i := range st.Posted {
		st.Posted[i] = s.shard.lanes.Posted(i)
	}
	for chip, lane := range s.shard.laneOf {
		st.LaneOf[chip] = int(lane)
	}
	return st
}

// ReadDiscard implements ftl.DiscardReader: a host read whose payload the
// FTL discards. Timing and tracing are identical to Read's success path;
// in sharded mode the chip work is deferred instead of flushing the lane.
// In fault mode the oracle pre-runs the serial retry loop (each redraw
// burns the discarded transfer's bit-flip draws too), the coordinator
// replays the retry reservations and counters, and the record carries
// the attempt count for the lane's disturb bookkeeping.
func (s *SSD) ReadDiscard(p ftl.PPA, dep sim.Micros) sim.Micros {
	if s.shard == nil {
		_, done := s.Read(p, dep)
		return done
	}
	chip, a := s.addr(p)
	attempts, failed := 1, false
	if s.oracle != nil {
		attempts, failed = s.oracle.readDiscard(chip, a)
	}
	s.shard.post(chip, sim.Record{
		Kind: opReadDiscard, Block: int32(a.Block), Page: int32(a.Page),
		Block2: int32(attempts), Aux: int64(dep),
	})
	cellStart, cellDone := s.chipTL[chip].Reserve(dep, s.cfg.Timing.Read)
	if s.traceOn {
		s.emitChip(trace.OpRead, chip, p, dep, cellStart, cellDone)
	}
	for i := 1; i < attempts; i++ {
		s.readRetries++
		retryStart, retryDone := s.chipTL[chip].Reserve(cellDone, s.cfg.Timing.Read)
		if s.traceOn {
			s.emitChip(trace.OpReadRetry, chip, p, cellDone, retryStart, retryDone)
		}
		cellDone = retryDone
	}
	if failed {
		s.readFailures++
	}
	busStart, busDone := s.busTL[s.channelOf(chip)].Reserve(cellDone, s.cfg.Timing.Xfer)
	if s.cfg.NoCachePipeline {
		s.chipTL[chip].Reserve(cellDone, busDone-cellDone)
	}
	if s.traceOn {
		s.emitChip(trace.OpXfer, chip, p, cellDone, busStart, busDone)
	}
	return busDone
}
