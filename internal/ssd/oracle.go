// Coordinator-side fault oracle for channel-sharded execution.
//
// Serial fault injection draws its decisions inside the chip operations,
// which deferral breaks twice over: the FTL's recovery ladder needs each
// verdict synchronously (a failed program is retried elsewhere before
// the next op is issued), and the draw order of each chip's splitmix64
// stream must stay a pure function of the workload. The oracle restores
// both properties by moving the injectors — the very same per-chip
// streams, seeded identically — onto the coordinator. Every Target
// method draws its verdict at the post site, before the deferred record
// is enqueued; the record then carries the verdict to the lane worker,
// which replays only the state effects (nand.Apply*Fail and friends)
// without consuming any draws of its own.
//
// Chip operations gate their draws on chip state (a pLock of an
// already-flagged page draws nothing; a read of an erased page draws
// nothing), so the oracle mirrors exactly the state that gates draws:
// per-page payload lengths, per-page pAP flag-programmed bits, per-block
// SSL-programmed bits, and per-block P/E counts. Each mirror field is
// updated by the same verdicts that drive the chip, so mirror and chip
// can never disagree — and because per-chip draw order equals the
// coordinator's call order in both modes, a sharded fault schedule is
// bit-identical to the serial one, stream for stream, draw for draw.
package ssd

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/nand"
)

// faultOracle owns the per-chip injectors and the draw-gating mirror of
// chip state in sharded fault mode. It is coordinator-private: lane
// workers never touch it.
type faultOracle struct {
	inj       []*fault.Injector
	endurance int
	geo       ftl.Geometry

	// Mirrors, indexed [chip][chip-local block] or [chip][pageIndex].
	peCycles [][]int32
	pageLen  [][]int32
	flagged  [][]bool
	bLocked  [][]bool

	// readGroup scratch (one multi-plane group at a time).
	attempts []int
}

func newFaultOracle(cfg Config, geo ftl.Geometry) *faultOracle {
	nChips := geo.Chips
	o := &faultOracle{
		inj:       make([]*fault.Injector, nChips),
		endurance: cfg.Chip.EnduranceCycles,
		geo:       geo,
		peCycles:  make([][]int32, nChips),
		pageLen:   make([][]int32, nChips),
		flagged:   make([][]bool, nChips),
		bLocked:   make([][]bool, nChips),
		attempts:  make([]int, geo.Planes),
	}
	for i := 0; i < nChips; i++ {
		// Stream index = chip index, exactly as the serial constructor
		// wires injectors into chips: the schedules are the same streams.
		o.inj[i] = fault.New(cfg.Fault, uint64(i))
		o.peCycles[i] = make([]int32, geo.BlocksPerChip)
		o.pageLen[i] = make([]int32, geo.BlocksPerChip*geo.PagesPerBlock)
		o.flagged[i] = make([]bool, geo.BlocksPerChip*geo.PagesPerBlock)
		o.bLocked[i] = make([]bool, geo.BlocksPerChip)
	}
	return o
}

// counts sums every stream's injection counters.
func (o *faultOracle) counts() fault.Counts {
	var c fault.Counts
	for _, in := range o.inj {
		c.Add(in.Counts())
	}
	return c
}

// pageIndex numbers a page within its chip — the PPA the same address
// has on chip 0.
func (o *faultOracle) pageIndex(a nand.PageAddr) int { return int(o.geo.PPAOf(0, a.Block, a.Page)) }

// program draws the verdict for a deferred single-page program. stored
// is the pooled payload copy the record will carry; on a failure verdict
// its tail is corrupted in place — the same draws, producing the same
// bytes, as the serial chip's corrupt-after-store.
func (o *faultOracle) program(chip int, a nand.PageAddr, stored []byte) error {
	o.pageLen[chip][o.pageIndex(a)] = int32(len(stored))
	if o.inj[chip].FailProgram(int(o.peCycles[chip][a.Block]), o.endurance) {
		o.inj[chip].CorruptTail(stored)
		return nand.ErrProgramFailed
	}
	return nil
}

// programStored draws the verdict for a page just programmed
// synchronously on the chip (the ProgramGroup payload fallback, behind a
// lane flush); a failure corrupts the stored bytes on the chip through
// the oracle's stream, in the serial draw order (verdict, then tail).
func (o *faultOracle) programStored(chip int, a nand.PageAddr, c *nand.Chip) error {
	o.pageLen[chip][o.pageIndex(a)] = int32(c.PageLen(a))
	if o.inj[chip].FailProgram(int(o.peCycles[chip][a.Block]), o.endurance) {
		if err := c.CorruptStoredTail(a, o.inj[chip]); err != nil {
			panic(fmt.Sprintf("ssd: oracle corrupt at %v: %v", a, err))
		}
		return nand.ErrProgramFailed
	}
	return nil
}

// programGroup draws per-page verdicts for a deferred all-nil-payload
// multi-plane program, in plane order — the order ProgramMulti issues
// the per-page programs. errs[i] is set for failed pages (the FTL's
// striped-write recovery consumes it); the chip-side replay needs no
// verdicts because a zero-length stored payload corrupts to itself.
func (o *faultOracle) programGroup(chip int, addrs []nand.PageAddr, errs []error) {
	for i, a := range addrs {
		o.pageLen[chip][o.pageIndex(a)] = 0
		if o.inj[chip].FailProgram(int(o.peCycles[chip][a.Block]), o.endurance) {
			errs[i] = nand.ErrProgramFailed
		}
	}
}

// copyback draws the destination-program verdict of an internal data
// move. The source read is the chip's internal path (no transfer-error
// draws), and the destination inherits the source's payload length —
// locked or erased sources copy as zeros of the same length, exactly as
// the chip's gated data-out path yields them.
func (o *faultOracle) copyback(chip int, src, dst nand.PageAddr) bool {
	o.pageLen[chip][o.pageIndex(dst)] = o.pageLen[chip][o.pageIndex(src)]
	return o.inj[chip].FailProgram(int(o.peCycles[chip][dst.Block]), o.endurance)
}

// erase draws the verdict for a deferred block erase. A success advances
// the mirrored P/E count and resets every page and lock mirror of the
// block; a failure leaves the mirror untouched (the chip keeps its data,
// flags and SSL state, and did not cycle).
func (o *faultOracle) erase(chip, block int) bool {
	if o.inj[chip].FailErase(int(o.peCycles[chip][block]), o.endurance) {
		return true
	}
	o.peCycles[chip][block]++
	base := o.pageIndex(nand.PageAddr{Block: block})
	for i := base; i < base+o.geo.PagesPerBlock; i++ {
		o.pageLen[chip][i] = 0
		o.flagged[chip][i] = false
	}
	o.bLocked[chip][block] = false
	return false
}

// plock draws the verdict for a deferred single-page pLock. An
// already-flagged page is a charged no-op that consumes no draw,
// matching the chip's gate.
func (o *faultOracle) plock(chip int, a nand.PageAddr) bool {
	pi := o.pageIndex(a)
	if o.flagged[chip][pi] {
		return false
	}
	if o.inj[chip].FailPLock(int(o.peCycles[chip][a.Block]), o.endurance) {
		return true
	}
	o.flagged[chip][pi] = true
	return false
}

// plockWL draws the verdict for a deferred batched pLock pulse: one draw
// if any requested slot is still unflagged, none otherwise. A success
// flags every requested slot (all-or-none pulse).
func (o *faultOracle) plockWL(chip, block, wl int, slots []int32) bool {
	base := o.pageIndex(nand.PageAddr{Block: block, Page: wl * o.geo.PagesPerWL})
	need := false
	for _, s := range slots {
		if !o.flagged[chip][base+int(s)] {
			need = true
			break
		}
	}
	if !need {
		return false
	}
	if o.inj[chip].FailPLock(int(o.peCycles[chip][block]), o.endurance) {
		return true
	}
	for _, s := range slots {
		o.flagged[chip][base+int(s)] = true
	}
	return false
}

// block draws the verdict for a deferred bLock. An already-programmed
// SSL is a charged no-op without a draw, as on the chip.
func (o *faultOracle) block(chip, blockIdx int) bool {
	if o.bLocked[chip][blockIdx] {
		return false
	}
	if o.inj[chip].FailBLock(int(o.peCycles[chip][blockIdx]), o.endurance) {
		return true
	}
	o.bLocked[chip][blockIdx] = true
	return false
}

// readPayload overlays the transfer-error model on a synchronous chip
// read (lane already flushed): the same draws the serial chip makes,
// flipping bits in the actual payload when uncorrectable. err must be
// nil on entry — locked and erased pages consume no draws.
func (o *faultOracle) readPayload(chip int, a nand.PageAddr, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	bits := len(data) * 8
	nerr, unc := o.inj[chip].ReadErrors(bits, int(o.peCycles[chip][a.Block]), o.endurance)
	if unc {
		o.inj[chip].FlipBits(data, nerr)
		return fmt.Errorf("%w: injected %d raw errors in %d bits", nand.ErrUncorrectable, nerr, bits)
	}
	return nil
}

// readDiscard replays the whole serial retry loop for a deferred
// timing-only read: the initial draw plus up to maxReadAttempts-1
// redraws, burning the bit-flip draws of each uncorrectable transfer
// (the payload is discarded, but the serial path corrupts its buffer
// and the stream must stay aligned). Returns the attempt count for the
// lane replay and whether the read stayed uncorrectable.
func (o *faultOracle) readDiscard(chip int, a nand.PageAddr) (attempts int, failed bool) {
	pi := o.pageIndex(a)
	if o.flagged[chip][pi] || o.bLocked[chip][a.Block] {
		// The FTL never reads locked pages (locks target invalid pages
		// only); if that invariant ever breaks, fail loudly instead of
		// silently diverging from the serial schedule.
		panic(fmt.Sprintf("ssd: deferred read of locked page %v on chip %d", a, chip))
	}
	attempts = 1
	bits := int(o.pageLen[chip][pi]) * 8
	if bits == 0 {
		return attempts, false
	}
	inj := o.inj[chip]
	pe := int(o.peCycles[chip][a.Block])
	nerr, unc := inj.ReadErrors(bits, pe, o.endurance)
	if unc {
		inj.SkipFlips(bits, nerr)
	}
	for unc && attempts < maxReadAttempts {
		attempts++
		nerr, unc = inj.ReadErrors(bits, pe, o.endurance)
		if unc {
			inj.SkipFlips(bits, nerr)
		}
	}
	return attempts, unc
}

// readGroup replays the serial draw order of a deferred multi-plane
// read: ReadMulti draws once per page in plane order, then the per-page
// retry loops run in plane order. It returns the per-page attempt
// counts (scratch, valid until the next call) and a bitmask of pages
// that stayed uncorrectable.
func (o *faultOracle) readGroup(chip int, addrs []nand.PageAddr) (attempts []int, failedMask uint64) {
	attempts = o.attempts[:len(addrs)]
	inj := o.inj[chip]
	for i, a := range addrs {
		attempts[i] = 1
		pi := o.pageIndex(a)
		if o.flagged[chip][pi] || o.bLocked[chip][a.Block] {
			panic(fmt.Sprintf("ssd: deferred group read of locked page %v on chip %d", a, chip))
		}
		bits := int(o.pageLen[chip][pi]) * 8
		if bits == 0 {
			continue
		}
		nerr, unc := inj.ReadErrors(bits, int(o.peCycles[chip][a.Block]), o.endurance)
		if unc {
			inj.SkipFlips(bits, nerr)
			attempts[i] = -1 // uncorrectable after first attempt; retried below
		}
	}
	for i, a := range addrs {
		if attempts[i] != -1 {
			continue
		}
		n := 1
		bits := int(o.pageLen[chip][o.pageIndex(a)]) * 8
		pe := int(o.peCycles[chip][a.Block])
		unc := true
		for unc && n < maxReadAttempts {
			n++
			var nerr int
			nerr, unc = inj.ReadErrors(bits, pe, o.endurance)
			if unc {
				inj.SkipFlips(bits, nerr)
			}
		}
		attempts[i] = n
		if unc {
			failedMask |= 1 << uint(i)
		}
	}
	return attempts, failedMask
}

// rebuild resynchronizes the mirror from settled chip state (lanes must
// be drained). Remount uses it as a belt-and-suspenders step: the media
// scan rebuilt the FTL's world, and the oracle re-reads the same truth.
func (o *faultOracle) rebuild(chips []*nand.Chip) {
	for ci, c := range chips {
		for b := range o.bLocked[ci] {
			o.peCycles[ci][b] = int32(c.PECycles(b))
			o.bLocked[ci][b] = c.SSLProgrammed(b)
			for p := 0; p < o.geo.PagesPerBlock; p++ {
				a := nand.PageAddr{Block: b, Page: p}
				pi := o.pageIndex(a)
				o.pageLen[ci][pi] = int32(c.PageLen(a))
				o.flagged[ci][pi] = c.FlagProgrammed(a)
			}
		}
	}
}
