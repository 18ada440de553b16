package nand

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/nand/vth"
	"repro/internal/sim"
)

// ReadResult is the outcome of a page read.
type ReadResult struct {
	// Data is the page payload. For a locked page or block it is all
	// zeros, matching the paper's "a read request to a sanitized page
	// always returns data with all bits set to 0".
	//
	// Aliasing rule: Data points into a per-chip scratch buffer and is
	// only valid until the next operation on the same chip. Callers must
	// either consume it immediately (compare, stream out) or copy it;
	// Program copies its payload, so the common Read→Program relocation
	// chain is safe without an extra copy.
	Data []byte
	// Latency is tREAD (the lock check happens during the normal read
	// flow, adding no latency).
	Latency sim.Micros
	// CorrectedBits is the number of injected bit errors the ECC model
	// repaired (only populated with WithErrorInjection).
	CorrectedBits int
}

// CloneData returns a caller-owned copy of Data (nil stays nil). It is
// the documented copy helper for holding page contents across later
// operations on the same chip; ssd.ReadLogical hands pages to the host
// through it.
func (r ReadResult) CloneData() []byte {
	if r.Data == nil {
		return nil
	}
	return append([]byte(nil), r.Data...)
}

// Read performs a page read at simulated time now.
//
// Security semantics (§5.2): if the block's bAP flag is disabled the read
// fails with ErrBlockLocked; otherwise if the page's pAP flag is disabled
// it fails with ErrPageLocked. In both cases the returned data is all
// zeros — the bridge transistor gates the data-out path, so even an
// attacker with full command access learns nothing.
func (c *Chip) Read(a PageAddr, now sim.Micros) (ReadResult, error) {
	if err := c.checkAddr(a); err != nil {
		return ReadResult{}, err
	}
	c.opCount[OpRead]++
	res := ReadResult{Latency: c.timing.Read}
	blk := &c.blocks[a.Block]
	day := c.nowDays(now)
	stored := blk.payload(a.Page)

	// bAP check first (Fig. 7(b)): a disabled block blocks every page.
	if c.blockLockedAt(blk, day) {
		res.Data = c.zeroScratch(len(stored))
		return res, ErrBlockLocked
	}
	// pAP check (Fig. 7(a)): the flag is read from the spare area
	// concurrently with the data, decided by the k-cell majority circuit.
	if c.pageLockedAt(c.rec(a), day) {
		res.Data = c.zeroScratch(len(stored))
		return res, ErrPageLocked
	}

	// Reading one wordline stresses its neighbours with the VREAD pass
	// voltage (read disturb, §2.1 footnote 3).
	wlIdx, _ := c.wlOf(a.Page)
	if wlIdx > 0 {
		blk.wlReads[wlIdx-1]++
	}
	if wlIdx+1 < len(blk.wlReads) {
		blk.wlReads[wlIdx+1]++
	}

	if stored == nil {
		// Erased flash reads as all ones.
		res.Data = nil
		return res, nil
	}
	data := c.readBuf[:len(stored)]
	copy(data, stored)

	if c.injectErrors {
		corrected, err := c.injectReadErrors(blk, a, data, day)
		res.CorrectedBits = corrected
		if err != nil {
			res.Data = data
			return res, err
		}
	}
	if c.faults != nil && !c.noInject && len(data) > 0 {
		nerr, uncorrectable := c.faults.ReadErrors(len(data)*8, blk.peCycles, c.geo.EnduranceCycles)
		if uncorrectable {
			// Model the failed transfer: the host sees mangled bytes.
			c.faults.FlipBits(data, nerr)
			res.Data = data
			return res, fmt.Errorf("%w: injected %d raw errors in %d bits", ErrUncorrectable, nerr, len(data)*8)
		}
		res.CorrectedBits += nerr
	}
	res.Data = data
	return res, nil
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
	center := blk.sslCenter - (c.sslModel.ProgrammedCenter(c.blockV, c.blockT) -
		c.sslModel.CenterAfter(c.blockV, c.blockT, elapsed))
	return center >= c.sslModel.DisableThreshold
}

// pageLockedAt evaluates the pAP flag via the k-cell majority circuit,
// applying flag-cell retention decay since the lock.
func (c *Chip) pageLockedAt(rec *pageRec, day float64) bool {
	if rec.flag == 0 {
		return false
	}
	slot := c.flagSlot(rec.flag)
	k := c.geo.FlagCells
	cells := slot[:k]
	elapsed := day - slot[k]
	if elapsed <= 0 {
		// No retention yet: MeanAfter is ProgrammedMean, the decay below
		// is exactly 0 and the cells vote as programmed.
		return c.flagModel.MajorityReadsDisabled(cells)
	}
	decay := c.flagModel.ProgrammedMean(c.plockV, c.plockT) -
		c.flagModel.MeanAfter(c.plockV, c.plockT, elapsed, 0)
	aged := c.agedBuf[:len(cells)]
	for i, v := range cells {
		aged[i] = v - decay
	}
	return c.flagModel.MajorityReadsDisabled(aged)
}

// injectReadErrors draws a bit-error count from the cell model and flips
// random bits; it returns ErrUncorrectable when the count exceeds the
// ECC limit for the page.
func (c *Chip) injectReadErrors(blk *block, a PageAddr, data []byte, day float64) (int, error) {
	wl, _ := c.wlOf(a.Page)
	cond := vth.Condition{
		PECycles:        blk.peCycles,
		RetentionDays:   maxf(0, day-blk.wlProgDay[wl]),
		ReadDisturbs:    int(blk.wlReads[wl]),
		ProgramDisturbs: int(blk.wlDisturbs[wl]),
		DisturbV:        c.plockV,
		DisturbT:        c.plockT,
	}
	if blk.everErased {
		cond.OpenIntervalDays = maxf(0, blk.wlProgDay[wl]-blk.erasedDay)
	}
	rber := c.model.PageRBER(c.PageKindOf(a.Page), cond)
	bits := len(data) * 8
	if bits == 0 {
		return 0, nil
	}
	// Binomial draw via Poisson approximation (rber*bits is small).
	lambda := rber * float64(bits)
	nerr := poissonDraw(c.rng, lambda)
	limit := int(c.eccLimit * float64(bits))
	if nerr > limit {
		// Uncorrectable: corrupt the data to model a failed transfer.
		for i := 0; i < nerr && i < bits; i++ {
			p := c.rng.Intn(bits)
			data[p/8] ^= 1 << uint(p%8)
		}
		return 0, fmt.Errorf("%w: %d errors in %d bits (limit %d)", ErrUncorrectable, nerr, bits, limit)
	}
	return nerr, nil
}

// poissonDraw samples Poisson(lambda). For small lambda it uses Knuth's
// multiplication method; for large lambda the normal approximation, which
// is accurate enough for error-count injection.
func poissonDraw(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(lambda + math.Sqrt(lambda)*rng.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	limit := math.Exp(-lambda)
	l := 1.0
	for k := 0; ; k++ {
		l *= rng.Float64()
		if l < limit {
			return k
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Program writes data to a page at simulated time now. The block must be
// erased at that position and pages must be programmed in order, the
// append-only discipline 3D NAND imposes.
func (c *Chip) Program(a PageAddr, data []byte, now sim.Micros) (sim.Micros, error) {
	if err := c.checkAddr(a); err != nil {
		return 0, err
	}
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
	c.opCount[OpProgram]++
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

	wl, slot := c.wlOf(a.Page)
	if slot == 0 || !blk.wlProgrammed[wl] {
		blk.wlProgDay[wl] = c.nowDays(now)
		blk.wlProgrammed[wl] = true
	}

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
		return c.timing.Prog, ErrProgramFailed
	}
	return c.timing.Prog, nil
}

// Erase wipes the block: all page data is destroyed, all pAP flags and
// the bAP flag reset to enabled, the write pointer rewinds, and the P/E
// counter advances. This is the only way a locked page or block becomes
// accessible again — after its data is gone.
func (c *Chip) Erase(blockIdx int, now sim.Micros) (sim.Micros, error) {
	if blockIdx < 0 || blockIdx >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	c.opCount[OpErase]++
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
		return c.timing.Erase, ErrEraseFailed
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
	for i := range recs {
		if recs[i].flag != 0 {
			c.flagFree = append(c.flagFree, recs[i].flag)
		}
	}
	clear(recs)
	blk.flagEnd = 0
	for w := range blk.wlDisturbs {
		blk.wlDisturbs[w] = 0
		blk.wlReads[w] = 0
		blk.wlProgrammed[w] = false
		blk.wlProgDay[w] = 0
	}
	blk.writePtr = 0
	blk.peCycles++
	blk.sslCenter = 0
	blk.sslLockDay = 0
	blk.erasedDay = c.nowDays(now)
	blk.everErased = true
	return c.timing.Erase, nil
}

// PLock disables access to one page by programming its k pAP flag cells
// with the §5.3 operating point (one-shot, SBPI-inhibiting the data cells
// and the sibling pages' flags). The sibling pages experience one program
// disturb pulse.
func (c *Chip) PLock(a PageAddr, now sim.Micros) (sim.Micros, error) {
	if err := c.checkAddr(a); err != nil {
		return 0, err
	}
	c.opCount[OpPLock]++
	blk := &c.blocks[a.Block]
	rec := c.rec(a)
	wl, _ := c.wlOf(a.Page)
	// A cut mid-pulse leaves the flag cells short of the majority
	// threshold: the page stays readable, the WL took the disturb.
	if c.strike(fault.CutPLock) {
		if rec.flag == 0 {
			blk.wlDisturbs[wl]++
		}
		panic(PowerLoss{Op: OpPLock, Addr: a, At: now})
	}
	if rec.flag == 0 {
		// A failed one-shot flag program leaves the page readable (the
		// majority circuit still sees the flag enabled) but its pulse
		// disturbed the WL all the same. pLock cannot be retried on the
		// same flag cells — the FTL escalates to bLock.
		if c.faults != nil && c.faults.FailPLock(blk.peCycles, c.geo.EnduranceCycles) {
			blk.wlDisturbs[wl]++
			return c.timing.PLock, ErrPLockFailed
		}
		c.programFlag(blk, a.Page, rec, c.nowDays(now))
		// The high program voltage on the WL disturbs the inhibited data
		// cells (Fig. 9(b)).
		blk.wlDisturbs[wl]++
	}
	return c.timing.PLock, nil
}

// PLockWL disables several pages of one wordline with a single SBPI
// pulse. §5 programs pAP flags selectively per wordline: the one-shot
// program voltage is applied to the WL while the data cells and the
// flags of slots NOT in the batch are inhibited, so locking n sibling
// pages costs one tpLock and one program disturb instead of n of each.
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
	c.opCount[OpPLockWL]++
	blk := &c.blocks[blockIdx]
	base := wl * bits
	recs := c.blockRecs(blockIdx, c.pagesPerBlock)
	need := false
	for _, s := range slots {
		if recs[base+s].flag == 0 {
			need = true
			break
		}
	}
	// The batched pulse is atomic all-or-none, and a power cut takes
	// the "none" arm just like an injected FAIL: every requested flag
	// is left unprogrammed and readable.
	if c.strike(fault.CutPLockBatch) {
		if need {
			blk.wlDisturbs[wl]++
		}
		panic(PowerLoss{Op: OpPLockWL, Addr: PageAddr{Block: blockIdx, Page: base}, At: now})
	}
	if !need {
		return c.timing.PLock, nil
	}
	// One fault draw per pulse: the whole batch shares the one-shot
	// program cycle.
	if c.faults != nil && c.faults.FailPLock(blk.peCycles, c.geo.EnduranceCycles) {
		blk.wlDisturbs[wl]++
		return c.timing.PLock, ErrPLockFailed
	}
	for _, s := range slots {
		if rec := &recs[base+s]; rec.flag == 0 {
			c.programFlag(blk, base+s, rec, c.nowDays(now))
		}
	}
	// A single pulse stresses the inhibited data cells once, however many
	// flag groups it programs (Fig. 9(b)).
	blk.wlDisturbs[wl]++
	return c.timing.PLock, nil
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
func (c *Chip) ProgramMulti(addrs []PageAddr, datas [][]byte, now sim.Micros) (sim.Micros, []error, error) {
	if len(addrs) != len(datas) {
		return 0, nil, fmt.Errorf("nand: %d addresses but %d payloads", len(addrs), len(datas))
	}
	if err := c.checkPlanes(addrs); err != nil {
		return 0, nil, err
	}
	c.opCount[OpProgramMulti]++
	errs := make([]error, len(addrs))
	for i, a := range addrs {
		_, errs[i] = c.Program(a, datas[i], now)
	}
	return c.timing.Prog, errs, nil
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
	c.opCount[OpReadMulti]++
	errs := make([]error, len(addrs))
	for i, a := range addrs {
		_, errs[i] = c.Read(a, now)
	}
	return c.timing.Read, errs, nil
}

// BLock disables access to the whole block by programming its SSL cells
// above the read bias (§5.4 operating point).
func (c *Chip) BLock(blockIdx int, now sim.Micros) (sim.Micros, error) {
	if blockIdx < 0 || blockIdx >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	c.opCount[OpBLock]++
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
			return c.timing.BLock, ErrBLockFailed
		}
		blk.sslCenter = c.sslModel.ProgrammedCenter(c.blockV, c.blockT)
		blk.sslLockDay = c.nowDays(now)
	}
	return c.timing.BLock, nil
}

// Scrub destroys the addressed page's wordline in place by raising every
// cell's Vth until the state distributions merge (the baseline technique
// of §4/§8). Because all pages of the wordline share those cells, every
// page on the WL is destroyed — which is exactly why the scrubbing FTL
// must relocate the WL's live sibling pages first.
func (c *Chip) Scrub(a PageAddr, now sim.Micros) (sim.Micros, error) {
	if err := c.checkAddr(a); err != nil {
		return 0, err
	}
	c.opCount[OpScrub]++
	blk := &c.blocks[a.Block]
	// An interrupted scrub reprogram destroys nothing the remount scan
	// (or the attacker) can't still read: the WL survives intact.
	if c.strike(fault.CutScrub) {
		panic(PowerLoss{Op: OpScrub, Addr: a, At: now})
	}
	wl, _ := c.wlOf(a.Page)
	bits := c.pagesPerWL
	recs := c.blockRecs(a.Block, c.pagesPerBlock)
	for slot := 0; slot < bits; slot++ {
		page := wl*bits + slot
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
	wlEnd := (wl + 1) * bits
	if blk.writePtr > wl*bits && blk.writePtr < wlEnd {
		blk.writePtr = wlEnd
	}
	blk.wlDisturbs[wl] += 3 // scrubbing stresses neighbouring WLs too
	return c.timing.Scrub, nil
}

// Copyback moves a page's contents to another location on the same chip
// without crossing the bus (the 00h-35h / 85h-10h internal data move of
// standard flash command sets). The destination must obey the normal
// program discipline. Reading a locked source through the internal path
// is still gated by the access-control logic: the copy lands all-zero,
// so copyback cannot be used to exfiltrate locked data.
func (c *Chip) Copyback(src, dst PageAddr, now sim.Micros) (sim.Micros, error) {
	if err := c.checkAddr(src); err != nil {
		return 0, err
	}
	c.noInject = true
	res, err := c.Read(src, now)
	c.noInject = false
	switch err {
	case nil, ErrPageLocked, ErrBlockLocked:
		// Locked sources yield zeros — allowed, harmless.
	default:
		return 0, err
	}
	progLat, err := c.Program(dst, res.Data, now)
	if err != nil && !errors.Is(err, ErrProgramFailed) {
		return 0, err
	}
	// The read happens internally at tREAD, then the program; no
	// transfer cycles. A program failure surfaces with its latency: the
	// destination page was consumed and must be recovered like any other
	// failed program.
	return c.timing.Read + progLat, err
}

// IsPageLocked reports the current pAP state of a page (majority vote,
// including any retention decay up to now).
func (c *Chip) IsPageLocked(a PageAddr, now sim.Micros) (bool, error) {
	if err := c.checkAddr(a); err != nil {
		return false, err
	}
	return c.pageLockedAt(c.rec(a), c.nowDays(now)), nil
}

// IsBlockLocked reports the current bAP state of a block.
func (c *Chip) IsBlockLocked(blockIdx int, now sim.Micros) (bool, error) {
	if blockIdx < 0 || blockIdx >= c.geo.Blocks {
		return false, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	return c.blockLockedAt(&c.blocks[blockIdx], c.nowDays(now)), nil
}

// PECycles returns the block's program/erase count.
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
// ones leak their contents. The dump never errors: the attacker always
// gets bytes, just not necessarily useful ones.
//
// The dump bypasses the controller's read path entirely, so it draws no
// decisions from the controller-side fault injector (the transfer-error
// model covers the controller↔chip bus, not the attacker's reader): the
// dump is a pure function of media state and never perturbs the fault
// schedule.
func (c *Chip) ForensicDump(blockIdx int, now sim.Micros) [][]byte {
	out := make([][]byte, c.pagesPerBlock)
	prev := c.noInject
	c.noInject = true
	defer func() { c.noInject = prev }()
	for p := range out {
		res, err := c.Read(PageAddr{Block: blockIdx, Page: p}, now)
		switch err {
		case nil, ErrPageLocked, ErrBlockLocked:
			if res.Data != nil {
				// The dump outlives subsequent reads, so it cannot
				// alias the chip's read scratch: copy each page.
				cp := make([]byte, len(res.Data))
				copy(cp, res.Data)
				out[p] = cp
			}
		default:
			out[p] = nil
		}
	}
	return out
}
