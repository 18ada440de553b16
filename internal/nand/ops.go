package nand

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/nand/vth"
	"repro/internal/sim"
)

// sense is the array read every read path shares. It runs the bAP then
// the pAP vote and returns the stored payload: nil when the page is
// erased, zeros of the payload's length when it is locked. The bytes are
// the chip's own — its payload store or its read scratch — and valid
// until the next operation on the chip. The address must have passed
// checkAddr.
//
// Security semantics (§5.2): a disabled bAP flag fails the sense with
// ErrBlockLocked, otherwise a disabled pAP flag with ErrPageLocked. The
// bridge transistor gates the data-out path, so whichever interface
// issued the read — the controller, the internal copyback leg, an
// attacker's raw dump — learns nothing but the zeros.
func (c *Chip) sense(a PageAddr, now sim.Micros) ([]byte, error) {
	blk := &c.blocks[a.Block]
	day := c.nowDays(now)
	stored := blk.payload(a.Page)
	// bAP check first (Fig. 7(b)): a disabled block blocks every page. A
	// block never bLocked since its erase has no SSL charge to decay.
	if blk.sslCenter != 0 && c.blockLockedAt(blk, day) {
		return c.zeroScratch(len(stored)), ErrBlockLocked
	}
	// pAP check (Fig. 7(a)): the flag is read from the spare area
	// concurrently with the data, decided by the k-cell majority circuit.
	// No page at or past flagEnd has a programmed flag, so its record is
	// not loaded at all — every page of a block no pLock has touched.
	if a.Page < blk.flagEnd && c.pageLockedAt(c.rec(a), day) {
		return c.zeroScratch(len(stored)), ErrPageLocked
	}
	return stored, nil
}

// Read performs a page read at simulated time now: the sense step, then
// the page's transfer to the controller. An erased page reads as nil; a
// locked one fails with ErrBlockLocked or ErrPageLocked and reads as
// zeros. The transfer crosses the bus, where an attached fault injector
// may draw bit errors: beyond the ECC limit the read fails with
// ErrUncorrectable and returns the mangled bytes.
//
// Aliasing rule: the returned bytes live in a per-chip scratch buffer and
// are only valid until the next operation on the same chip. Callers must
// either consume them immediately (compare, stream out) or copy them;
// Program copies its payload, so a Read→Program chain is safe without an
// extra copy.
func (c *Chip) Read(a PageAddr, now sim.Micros) ([]byte, error) {
	if err := c.checkAddr(a); err != nil {
		return nil, err
	}
	stored, err := c.sense(a, now)
	if err != nil || stored == nil {
		return stored, err
	}
	data := c.readBuf[:len(stored)]
	copy(data, stored)
	if c.faults != nil {
		nerr, uncorrectable := c.faults.ReadErrors(len(data)*8, c.blocks[a.Block].peCycles, c.geo.EnduranceCycles)
		if uncorrectable {
			// Model the failed transfer: the host sees mangled bytes.
			c.faults.FlipBits(data, nerr)
			return data, fmt.Errorf("%w: injected %d raw errors in %d bits", ErrUncorrectable, nerr, len(data)*8)
		}
	}
	return data, nil
}

// zeroScratch returns the first n bytes of the read scratch, zeroed.
func (c *Chip) zeroScratch(n int) []byte {
	buf := c.readBuf[:n]
	clear(buf)
	return buf
}

// blockLockedAt evaluates the bAP flag: the SSL center Vth (after
// retention decay) must exceed the disable threshold to keep the block
// locked.
func (c *Chip) blockLockedAt(blk *block, day float64) bool {
	if blk.sslCenter == 0 {
		return false
	}
	elapsed := day - blk.sslLockDay
	if elapsed <= 0 {
		// No retention yet: CenterAfter is ProgrammedCenter, the decay
		// below is exactly 0.
		return blk.sslCenter >= c.sslModel.DisableThreshold
	}
	center := blk.sslCenter - (c.sslModel.ProgrammedCenter(vth.BLockPoint.V, vth.BLockPoint.T) -
		c.sslModel.CenterAfter(vth.BLockPoint.V, vth.BLockPoint.T, elapsed))
	return center >= c.sslModel.DisableThreshold
}

// pageLockedAt evaluates the pAP flag via the k-cell majority circuit,
// applying flag-cell retention decay since the lock: the majority reads
// disabled exactly when the median cell does (see papFlag).
func (c *Chip) pageLockedAt(rec *pageRec, day float64) bool {
	if rec.flag == 0 {
		return false
	}
	f := c.flagAt(rec.flag)
	median := f.median
	if elapsed := day - f.day; elapsed > 0 {
		// With no retention yet MeanAfter is ProgrammedMean and the decay
		// is exactly 0.
		median -= c.flagMean - c.flagModel.MeanAfter(vth.PLockPoint.V, vth.PLockPoint.T, elapsed, 0)
	}
	return median > c.flagModel.ReadRef
}

// Program writes data to a page at simulated time now. The block must be
// erased at that position and pages must be programmed in order, the
// append-only discipline 3D NAND imposes.
//
// spare, when given (at most one), is the controller's stamp for the
// page's spare area (see blockio.Stamp). It rides the same wordline
// program, so it costs no latency and draws no fault decision of its own,
// and it lands only when the program succeeds: a failed or power-cut
// program leaves the page stamp-less, which is the torn-write signature
// the remount scan keys on.
func (c *Chip) Program(a PageAddr, data []byte, now sim.Micros, spare ...blockio.Stamp) (sim.Micros, error) {
	if err := c.checkAddr(a); err != nil {
		return 0, err
	}
	return c.program(a, data, now, spare)
}

// program is Program on an address that has passed checkAddr.
func (c *Chip) program(a PageAddr, data []byte, now sim.Micros, spare []blockio.Stamp) (sim.Micros, error) {
	if len(data) > c.geo.PageBytes {
		return 0, fmt.Errorf("nand: payload %d exceeds page size %d", len(data), c.geo.PageBytes)
	}
	blk := &c.blocks[a.Block]
	if blk.sslCenter != 0 {
		return 0, fmt.Errorf("%w: cannot program a locked block", ErrBlockLocked)
	}
	if a.Page != blk.writePtr {
		if a.Page < blk.writePtr {
			return 0, fmt.Errorf("%w: page %d already used (write pointer %d)", ErrNotErased, a.Page, blk.writePtr)
		}
		return 0, fmt.Errorf("%w: page %d before pointer %d", ErrOutOfOrder, a.Page, blk.writePtr)
	}
	var stored []byte
	if len(data) > 0 {
		if blk.data == nil {
			blk.data = make([][]byte, c.pagesPerBlock)
		}
		stored = c.takePage(len(data))
		copy(stored, data)
		blk.data[a.Page] = stored
	}
	blk.writePtr++

	// A power cut mid-pulse tears the write: the page is consumed and
	// holds a readable prefix, but no OOB stamp ever lands — the
	// remount scan's torn-write signature (see PowerLoss).
	if c.strike(fault.CutProgram) {
		c.tearPayload(stored)
		panic(PowerLoss{Op: OpProgram, Addr: a, At: now})
	}

	// A program failure still consumed the page: the one-shot pulse
	// charged a prefix of the cells before the chip reported FAIL, so the
	// write pointer advanced and a partial (possibly readable) copy of
	// the payload is on the wordline. The FTL must retry elsewhere and
	// sanitize this page.
	if c.faults != nil && c.faults.FailProgram(blk.peCycles, c.geo.EnduranceCycles) {
		c.faults.CorruptTail(stored)
		return timing.Prog, ErrProgramFailed
	}
	if len(spare) > 0 {
		m, rec := &spare[0], c.rec(a)
		rec.lpa, rec.seq, rec.secure, rec.valid = m.LPA, m.Seq, m.Secure, true
	}
	return timing.Prog, nil
}

// Erase wipes the block: all page data is destroyed, all pAP flags and
// the bAP flag reset to enabled, the write pointer rewinds, and the P/E
// counter advances. This is the only way a locked page or block becomes
// accessible again — after its data is gone.
func (c *Chip) Erase(blockIdx int, now sim.Micros) (sim.Micros, error) {
	if blockIdx < 0 || blockIdx >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	blk := &c.blocks[blockIdx]
	// An interrupted tBERS destroys nothing: data, flags and SSL state
	// survive for the remount scan (and the attacker).
	if c.strike(fault.CutErase) {
		panic(PowerLoss{Op: OpErase, Addr: PageAddr{Block: blockIdx, Page: -1}, At: now})
	}
	// A failed erase leaves the block exactly as it was — data, flags and
	// SSL state intact — after burning the full tBERS. The FTL retires
	// such a block (its contents may be locked, never free).
	if c.faults != nil && c.faults.FailErase(blk.peCycles, c.geo.EnduranceCycles) {
		return timing.Erase, ErrEraseFailed
	}
	if blk.data != nil {
		// Retire payload buffers into the recycle pool for later Program
		// calls instead of dropping them on the GC.
		for i, stored := range blk.data[:blk.writePtr] {
			if stored != nil {
				c.pagePool = append(c.pagePool, stored[:0])
				blk.data[i] = nil
			}
		}
	}
	recs := c.blockRecs(blockIdx, max(blk.writePtr, blk.flagEnd))
	// Only pages below flagEnd can hold a flag slot.
	for i := range recs[:blk.flagEnd] {
		if recs[i].flag != 0 {
			c.flagFree = append(c.flagFree, recs[i].flag)
		}
	}
	clear(recs)
	blk.flagEnd = 0
	blk.writePtr = 0
	blk.peCycles++
	blk.sslCenter = 0
	blk.sslLockDay = 0
	return timing.Erase, nil
}

// PLock disables access to one page by programming its k pAP flag cells
// with the §5.3 operating point (one-shot, SBPI-inhibiting the data cells
// and the sibling pages' flags).
func (c *Chip) PLock(a PageAddr, now sim.Micros) (sim.Micros, error) {
	if err := c.checkAddr(a); err != nil {
		return 0, err
	}
	blk := &c.blocks[a.Block]
	rec := c.rec(a)
	// A cut mid-pulse leaves the flag cells short of the majority
	// threshold: the page stays readable.
	if c.strike(fault.CutPLock) {
		panic(PowerLoss{Op: OpPLock, Addr: a, At: now})
	}
	if rec.flag == 0 {
		// A failed one-shot flag program leaves the page readable (the
		// majority circuit still sees the flag enabled). pLock cannot be
		// retried on the same flag cells — the FTL escalates to bLock.
		if c.faults != nil && c.faults.FailPLock(blk.peCycles, c.geo.EnduranceCycles) {
			return timing.PLock, ErrPLockFailed
		}
		c.programFlag(blk, a.Page, rec, c.nowDays(now))
	}
	return timing.PLock, nil
}

// PLockWL disables several pages of one wordline with a single SBPI
// pulse. §5 programs pAP flags selectively per wordline: the one-shot
// program voltage is applied to the WL while the data cells and the
// flags of slots NOT in the batch are inhibited, so locking n sibling
// pages costs one tpLock instead of n.
//
// Failure semantics differ from the single-page PLock: the pulse either
// charges every requested flag group past the majority threshold or
// none of them (the chip reports status FAIL before any group commits),
// so a failed batched pulse leaves all requested pages readable and MAY
// be retried per page — unlike a failed single-page one-shot, whose
// flag cells are spent. Already-locked slots are skipped (charged
// no-ops), as are slots outside the batch.
func (c *Chip) PLockWL(blockIdx, wl int, slots []int, now sim.Micros) (sim.Micros, error) {
	if blockIdx < 0 || blockIdx >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	if wl < 0 || wl >= c.geo.WLsPerBlock {
		return 0, fmt.Errorf("%w: wordline %d", ErrBadAddress, wl)
	}
	bits := c.pagesPerWL
	for _, s := range slots {
		if s < 0 || s >= bits {
			return 0, fmt.Errorf("%w: WL slot %d", ErrBadAddress, s)
		}
	}
	blk := &c.blocks[blockIdx]
	base := wl * bits
	recs := c.blockRecs(blockIdx, c.pagesPerBlock)
	// The batched pulse is atomic all-or-none, and a power cut takes
	// the "none" arm just like an injected FAIL: every requested flag
	// is left unprogrammed and readable.
	if c.strike(fault.CutPLockBatch) {
		panic(PowerLoss{Op: OpPLockWL, Addr: PageAddr{Block: blockIdx, Page: base}, At: now})
	}
	need := false
	for _, s := range slots {
		if recs[base+s].flag == 0 {
			need = true
			break
		}
	}
	if !need {
		return timing.PLock, nil
	}
	// One fault draw per pulse: the whole batch shares the one-shot
	// program cycle.
	if c.faults != nil && c.faults.FailPLock(blk.peCycles, c.geo.EnduranceCycles) {
		return timing.PLock, ErrPLockFailed
	}
	for _, s := range slots {
		if rec := &recs[base+s]; rec.flag == 0 {
			c.programFlag(blk, base+s, rec, c.nowDays(now))
		}
	}
	return timing.PLock, nil
}

// checkPlanes validates a multi-plane address vector: at most one page
// per plane, every page on a distinct plane of this die.
func (c *Chip) checkPlanes(addrs []PageAddr) error {
	planes := c.geo.PlaneCount()
	if len(addrs) == 0 || len(addrs) > planes {
		return fmt.Errorf("%w: %d addresses for %d planes", ErrBadAddress, len(addrs), planes)
	}
	var seen uint64
	for _, a := range addrs {
		if err := c.checkAddr(a); err != nil {
			return err
		}
		p := c.geo.PlaneOf(a.Block)
		if p >= 64 {
			return fmt.Errorf("%w: plane %d out of modeled range", ErrBadAddress, p)
		}
		if seen&(1<<p) != 0 {
			return fmt.Errorf("%w: two pages on plane %d in one multi-plane op", ErrBadAddress, p)
		}
		seen |= 1 << p
	}
	return nil
}

// ProgramMulti programs one page per plane with a single shared cell-
// activity interval (the multi-plane program command): the returned
// latency is one tPROG regardless of how many planes participate, while
// the payload transfers still cross the bus per page (the device model
// accounts those separately). Per-page outcomes — program discipline
// violations and injected failures — land in the returned slice; the
// final error reports a malformed multi-plane address vector, in which
// case no page was touched.
//
// spare, when given, stamps a stripe of consecutive logical pages: it is
// the first page's stamp, page i carries LPA spare.LPA+i, and the pages
// that program successfully take consecutive sequence numbers from
// spare.Seq in address order (a failed page takes none).
func (c *Chip) ProgramMulti(addrs []PageAddr, datas [][]byte, now sim.Micros, spare ...blockio.Stamp) (sim.Micros, []error, error) {
	if len(addrs) != len(datas) {
		return 0, nil, fmt.Errorf("nand: %d addresses but %d payloads", len(addrs), len(datas))
	}
	if err := c.checkPlanes(addrs); err != nil {
		return 0, nil, err
	}
	errs := make([]error, len(addrs))
	var next [1]blockio.Stamp // the next page's stamp, if any
	stamp := next[:copy(next[:], spare)]
	for i, a := range addrs {
		if _, errs[i] = c.program(a, datas[i], now, stamp); errs[i] == nil {
			next[0].Seq++
		}
		next[0].LPA++
	}
	return timing.Prog, errs, nil
}

// ReadMulti reads one page per plane with a single shared cell-activity
// interval (the multi-plane read command). It returns only the per-page
// lock/ECC outcomes, not the payloads: the chip has one page register
// per plane but this model keeps one read scratch per die, and every
// caller of the grouped read path discards the data anyway (host reads
// are timing-only above the FTL). Use Read when the payload matters.
func (c *Chip) ReadMulti(addrs []PageAddr, now sim.Micros) (sim.Micros, []error, error) {
	if err := c.checkPlanes(addrs); err != nil {
		return 0, nil, err
	}
	errs := make([]error, len(addrs))
	for i, a := range addrs {
		_, errs[i] = c.Read(a, now)
	}
	return timing.Read, errs, nil
}

// BLock disables access to the whole block by programming its SSL cells
// above the read bias (§5.4 operating point).
func (c *Chip) BLock(blockIdx int, now sim.Micros) (sim.Micros, error) {
	if blockIdx < 0 || blockIdx >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	blk := &c.blocks[blockIdx]
	// A cut mid-pulse leaves the SSL cells below the disable
	// threshold: the block stays readable.
	if c.strike(fault.CutBLock) {
		panic(PowerLoss{Op: OpBLock, Addr: PageAddr{Block: blockIdx, Page: -1}, At: now})
	}
	if blk.sslCenter == 0 {
		// A failed SSL program leaves the block readable; the FTL falls
		// back to copy-out + erase.
		if c.faults != nil && c.faults.FailBLock(blk.peCycles, c.geo.EnduranceCycles) {
			return timing.BLock, ErrBLockFailed
		}
		blk.sslCenter = c.sslModel.ProgrammedCenter(vth.BLockPoint.V, vth.BLockPoint.T)
		blk.sslLockDay = c.nowDays(now)
	}
	return timing.BLock, nil
}

// Scrub destroys the addressed page's wordline in place by raising every
// cell's Vth until the state distributions merge (the baseline technique
// of §4/§8). Because all pages of the wordline share those cells, every
// page on the WL is destroyed — which is exactly why the scrubbing FTL
// must relocate the WL's live sibling pages first. Pages are striped
// WL-major in program order (the LSB/CSB/MSB pages of a WL have adjacent
// page numbers, the paper's Fig. 8 layout).
func (c *Chip) Scrub(a PageAddr, now sim.Micros) (sim.Micros, error) {
	if err := c.checkAddr(a); err != nil {
		return 0, err
	}
	blk := &c.blocks[a.Block]
	// An interrupted scrub reprogram destroys nothing the remount scan
	// (or the attacker) can't still read: the WL survives intact.
	if c.strike(fault.CutScrub) {
		panic(PowerLoss{Op: OpScrub, Addr: a, At: now})
	}
	bits := c.pagesPerWL
	wlStart := a.Page / bits * bits
	wlEnd := wlStart + bits
	recs := c.blockRecs(a.Block, c.pagesPerBlock)
	for page := wlStart; page < wlEnd; page++ {
		if blk.data != nil {
			clear(blk.data[page]) // reads as zeros; a nil entry already does
		}
		// The WL reprogram destroys the spare area with the data; the pAP
		// flag cells are inhibited and keep their state.
		recs[page] = pageRec{flag: recs[page].flag}
	}
	// Scrubbing programs every cell of the wordline, so any not-yet-
	// written page slots on it are consumed: the write pointer skips to
	// the end of the WL (the pages read as zeros, not as erased).
	if blk.writePtr > wlStart && blk.writePtr < wlEnd {
		blk.writePtr = wlEnd
	}
	return timing.Scrub, nil
}

// Copyback moves a page's contents to another location on the same chip
// without crossing the bus (the 00h-35h / 85h-10h internal data move of
// standard flash command sets): the source's sense step, then a program
// of what it sensed, stamped with spare as Program stamps. No transfer
// happens, so no transfer error is drawn. The destination must obey the
// normal program discipline; a destination outside the chip is refused
// before anything is sensed. Reading a locked source through the internal
// path is still gated by the access-control logic: the copy lands
// all-zero, so copyback cannot be used to exfiltrate locked data. The
// internal read takes tREAD, the program tPROG; there are no transfer
// cycles. Copyback is CopybackRun of one page.
func (c *Chip) Copyback(src, dst PageAddr, now sim.Micros, spare ...blockio.Stamp) (sim.Micros, error) {
	pages := [1]int{src.Page}
	lat, _, err := c.CopybackRun(src.Block, pages[:], dst, now, spare[:min(len(spare), 1)])
	return lat, err
}

// CopybackRun is a run of Copybacks: srcPages[i] of block srcBlock to
// page dst.Page+i of dst's block, stamped with spare[i] (spare is nil or
// one stamp per page). It returns the chip time of the copies made,
// tREAD + tPROG each, and how many landed. An injected program failure
// stops the run after charging its copy; any other error refuses the
// page it names with latency 0, and an address out of range the run.
//
// The per-block checks run once. A page whose copy needs nothing but the
// write pointer and the stamp — every page of a timing-only run — skips
// the sense and program steps. A page takes both when its source has a
// programmed pAP flag (whose vote the sense reads), its source block
// stores payloads or has a bAP charge, its destination is bLocked or not
// at its write pointer, or a fault injector or an armed cut is attached.
func (c *Chip) CopybackRun(srcBlock int, srcPages []int, dst PageAddr, now sim.Micros, spare []blockio.Stamp) (sim.Micros, int, error) {
	for _, pg := range srcPages {
		// checkAddr's test, inline: it is not inlined itself.
		if uint(srcBlock) >= uint(len(c.blocks)) || uint(pg) >= uint(c.pagesPerBlock) {
			return 0, 0, c.checkAddr(PageAddr{Block: srcBlock, Page: pg})
		}
	}
	for _, a := range [2]PageAddr{dst, {Block: dst.Block, Page: dst.Page + max(len(srcPages)-1, 0)}} {
		if err := c.checkAddr(a); err != nil {
			return 0, 0, err
		}
	}
	srcBlk, dstBlk := &c.blocks[srcBlock], &c.blocks[dst.Block]
	// A direct run cannot stop early: nothing can fail or cut a program.
	direct := c.faults == nil && !c.cut.Armed() && srcBlk.data == nil && srcBlk.sslCenter == 0 &&
		dstBlk.sslCenter == 0 && dst.Page == dstBlk.writePtr
	srcRecs, dstRecs := c.blockRecs(srcBlock, c.pagesPerBlock), c.blockRecs(dst.Block, c.pagesPerBlock)
	each := timing.Read + timing.Prog
	for i, pg := range srcPages {
		a := PageAddr{Block: dst.Block, Page: dst.Page + i}
		if direct && (pg >= srcBlk.flagEnd || srcRecs[pg].flag == 0) {
			dstBlk.writePtr++
			if spare != nil {
				m, rec := &spare[i], &dstRecs[a.Page]
				rec.lpa, rec.seq, rec.secure, rec.valid = m.LPA, m.Seq, m.Secure, true
			}
			continue
		}
		// A locked source senses as zeros, and zeros are what land.
		data, _ := c.sense(PageAddr{Block: srcBlock, Page: pg}, now)
		stamp := spare[min(i, len(spare)):min(i+1, len(spare))] // none when spare is nil
		if _, err := c.program(a, data, now, stamp); errors.Is(err, ErrProgramFailed) {
			// The destination page was consumed and must be recovered like
			// any other failed program.
			return sim.Micros(i+1) * each, i, err
		} else if err != nil {
			return 0, i, err
		}
	}
	return sim.Micros(len(srcPages)) * each, len(srcPages), nil
}

// IsBlockLocked reports the current bAP state of a block.
func (c *Chip) IsBlockLocked(blockIdx int, now sim.Micros) (bool, error) {
	if blockIdx < 0 || blockIdx >= c.geo.Blocks {
		return false, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	return c.blockLockedAt(&c.blocks[blockIdx], c.nowDays(now)), nil
}

// PECycles returns the block's program/erase count, which the golden
// device-state hashes cover.
//
//repro:testseam
func (c *Chip) PECycles(blockIdx int) int {
	return c.blocks[blockIdx].peCycles
}

// WritePointer returns the next programmable page index of a block.
func (c *Chip) WritePointer(blockIdx int) int {
	return c.blocks[blockIdx].writePtr
}

// ForensicDump models the paper's threat model (§5.1): an attacker who
// de-solders the chip and issues raw reads to every page of a block,
// bypassing FTL and file system. The result is exactly what the chip's
// data-out path yields — locked pages come back as zero-filled, unlocked
// ones leak their contents, erased ones (and every page of a block
// outside the chip) as nil. The dump never errors: the attacker always
// gets bytes, just not necessarily useful ones.
//
// The dump is the sense step alone: the controller-side transfer-error
// model covers the controller↔chip bus, not the attacker's reader, so the
// dump is a pure function of media state and never perturbs the fault
// schedule.
func (c *Chip) ForensicDump(blockIdx int, now sim.Micros) [][]byte {
	out := make([][]byte, c.pagesPerBlock)
	if uint(blockIdx) >= uint(len(c.blocks)) {
		return out
	}
	for p := range out {
		// The lock error tells the attacker nothing the zeros do not.
		data, _ := c.sense(PageAddr{Block: blockIdx, Page: p}, now)
		// The dump outlives later operations, so it cannot alias the
		// chip's storage: copy each page.
		out[p] = bytes.Clone(data)
	}
	return out
}
