// Package nand models a 3D NAND flash chip extended with the Evanesco
// lock commands. It implements the full command set the paper's SecureSSD
// needs:
//
//	Read, Program, Erase        — standard flash operations
//	PLock                       — disable one page (pAP flag, §5.3)
//	BLock                       — disable a whole block (bAP/SSL, §5.4)
//	Scrub, OSR                  — the baseline physical-sanitization ops
//
// The chip enforces the paper's security semantics on-chip: a read of a
// locked page (or of any page in a locked block) returns all-zero data no
// matter which interface issues it, and locks can only be cleared by a
// physical block erase, which destroys the data first.
//
// The chip keeps what those semantics and the remount scan read: per
// page the payload, the spare-area stamp and the pAP flag cells; per
// block the write pointer, P/E count and bAP (SSL) state. Every read
// path — the host Read, the internal leg of Copyback, ForensicDump —
// shares one sense step that applies the lock votes; only Read crosses
// the bus, so only Read draws the fault injector's transfer errors.
package nand

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/adopt"
	"repro/internal/fault"
	"repro/internal/nand/vth"
	"repro/internal/sim"
)

// Errors returned by chip operations.
var (
	ErrBadAddress    = errors.New("nand: address out of range")
	ErrNotErased     = errors.New("nand: programming a non-erased page")
	ErrOutOfOrder    = errors.New("nand: pages of a block must be programmed in order")
	ErrPageLocked    = errors.New("nand: page is locked (pAP disabled)")
	ErrBlockLocked   = errors.New("nand: block is locked (bAP disabled)")
	ErrUncorrectable = errors.New("nand: raw bit errors exceed ECC correction capability")

	// Injected operation failures (see internal/fault). The op consumed
	// its full latency and — for ErrProgramFailed — its page before
	// failing; the FTL's recovery ladder decides what happens next.
	ErrProgramFailed = errors.New("nand: program operation failed (status FAIL)")
	ErrEraseFailed   = errors.New("nand: erase operation failed (status FAIL)")
	ErrPLockFailed   = errors.New("nand: pLock flag program failed (status FAIL)")
	ErrBLockFailed   = errors.New("nand: bLock SSL program failed (status FAIL)")
)

// Geometry fixes the chip's physical layout. The defaults mirror the
// SecureSSD configuration in §7: 428 blocks of 192 TLC wordlines
// (576 pages) with 16-KiB pages.
type Geometry struct {
	Blocks      int
	WLsPerBlock int
	CellKind    vth.CellKind
	PageBytes   int
	// Planes is the number of planes the die's blocks are interleaved
	// across (block b lives in plane b mod Planes). Multi-plane commands
	// (ProgramMulti, ReadMulti) operate on one page per plane, sharing a
	// single cell-activity interval. 0 is treated as 1 (single-plane).
	Planes int
	// EnduranceCycles is the rated P/E endurance (1K for TLC).
	EnduranceCycles int
}

// DefaultGeometry returns the paper's SecureSSD chip geometry.
func DefaultGeometry() Geometry {
	return Geometry{
		Blocks:          428,
		WLsPerBlock:     192,
		CellKind:        vth.TLC,
		PageBytes:       16 * 1024,
		EnduranceCycles: 1000,
		Planes:          1,
	}
}

// PlaneCount returns the effective plane count (a zero Planes field means
// single-plane).
func (g Geometry) PlaneCount() int {
	if g.Planes <= 1 {
		return 1
	}
	return g.Planes
}

// PlaneOf returns the plane a block belongs to.
func (g Geometry) PlaneOf(block int) int { return block % g.PlaneCount() }

// PagesPerWL returns the number of pages stored on one wordline.
func (g Geometry) PagesPerWL() int { return g.CellKind.Bits() }

// PagesPerBlock returns the number of pages in one block.
func (g Geometry) PagesPerBlock() int { return g.WLsPerBlock * g.PagesPerWL() }

// TotalPages returns the page count of the whole chip.
func (g Geometry) TotalPages() int { return g.Blocks * g.PagesPerBlock() }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Blocks <= 0 || g.WLsPerBlock <= 0 || g.PageBytes <= 0 {
		return fmt.Errorf("nand: non-positive geometry %+v", g)
	}
	if g.CellKind < vth.SLC || g.CellKind > vth.QLC {
		return fmt.Errorf("nand: unknown cell kind %d", g.CellKind)
	}
	if g.Planes < 0 {
		return fmt.Errorf("nand: negative plane count %d", g.Planes)
	}
	if p := g.PlaneCount(); g.Blocks%p != 0 {
		return fmt.Errorf("nand: %d blocks not divisible across %d planes", g.Blocks, p)
	}
	return nil
}

// Timing holds the command latencies (§7): tREAD 80µs, tPROG 700µs,
// tBERS 3.5ms, tpLock 100µs, tbLock 300µs, scrub 100µs. tpLock and
// tbLock are the pulses of the lock operating points (vth.PLockPoint,
// vth.BLockPoint).
type Timing struct {
	Read  sim.Micros
	Prog  sim.Micros
	Erase sim.Micros
	PLock sim.Micros
	BLock sim.Micros
	Scrub sim.Micros
	// Xfer is the channel transfer time for one page (16 KiB over a
	// 400 MB/s bus ≈ 40 µs).
	Xfer sim.Micros
}

// DefaultTiming returns the paper's timing parameters, the latencies of
// every chip this simulator builds.
func DefaultTiming() Timing {
	return Timing{
		Read:  80,
		Prog:  700,
		Erase: 3500,
		PLock: sim.Micros(vth.PLockPoint.T),
		BLock: sim.Micros(vth.BLockPoint.T),
		Scrub: 100,
		Xfer:  40,
	}
}

// timing is DefaultTiming, read once: every chip op returns one of its
// latencies.
var timing = DefaultTiming()

// OpKind labels a chip operation for accounting.
type OpKind int

const (
	OpRead OpKind = iota
	OpProgram
	OpErase
	OpPLock
	OpBLock
	OpScrub
	// OpPLockWL counts batched SBPI pulses (PLockWL); the per-page OpPLock
	// counter is NOT advanced for the pages such a pulse covers.
	OpPLockWL
	// OpProgramMulti / OpReadMulti count multi-plane commands; the
	// per-page OpProgram / OpRead counters still advance once per page.
	OpProgramMulti
	OpReadMulti
	opKinds
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	case OpPLock:
		return "pLock"
	case OpBLock:
		return "bLock"
	case OpScrub:
		return "scrub"
	case OpPLockWL:
		return "pLockWL"
	case OpProgramMulti:
		return "programMulti"
	case OpReadMulti:
		return "readMulti"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// PageAddr addresses one physical page on a chip.
type PageAddr struct {
	Block int
	Page  int // 0 .. PagesPerBlock-1, in program order
}

func (a PageAddr) String() string { return fmt.Sprintf("pb%d/pp%d", a.Block, a.Page) }

// pageRec is everything the chip keeps per physical page besides the
// payload: the spare-area stamp's fields (see blockio.Stamp) with valid
// saying whether one landed, and, in what would be the stamp's padding,
// where the page's pAP flag lives. The fields are copied in rather than
// the struct embedded, which would pad the record to 32 bytes. One
// record per page sits in Chip.recs at block*pagesPerBlock+page, so
// Read, Program with its stamp, and the lock check touch one 24-byte
// entry. Whether the page is programmed is not stored: it is page <
// block.writePtr.
type pageRec struct {
	lpa int64
	seq uint64
	// flag is the 1-based slot of the page's pAP flag in the chip's flag
	// arena; 0 means the flag was never programmed (enabled).
	flag   uint32
	secure bool
	valid  bool
}

// papFlag is a programmed pAP flag as the k-cell majority circuit reads
// it (k = vth.FlagCells). The circuit asks one question, whether more
// than k/2 cells sense above ReadRef after retention decay; for odd k
// that is whether the median cell does, since the decay is the same for every cell and
// subtracting it keeps the cells' order. So the median of the k sampled
// Vths and the day the flag was programmed are all a flag keeps.
//
// The k cells are drawn when something first reads a flag, not when it is
// programmed: nothing reads a locked page on a figure run's hot path, so
// most flags are never drawn at all. Until then median is a NaN whose
// payload is the flag's program ordinal (see pendingMedian), and the
// first read of such a flag draws every pending flag in program order
// (see drawFlags), so each gets the values an eager draw would have.
type papFlag struct {
	median float64
	day    float64
}

// pendingNaN is the bit pattern of a quiet NaN; a pending flag's median
// is pendingNaN with the flag's program ordinal in the low 51 bits. A
// drawn median is a finite mean plus finite Gaussian offsets, never NaN.
const pendingNaN = 0x7ff8_0000_0000_0000

// pendingMedian is the median of a flag whose cells are not drawn yet:
// the NaN that carries its program ordinal.
func pendingMedian(ordinal uint64) float64 { return math.Float64frombits(pendingNaN | ordinal) }

// ordinalOf returns the program ordinal a pending median carries.
func ordinalOf(median float64) uint64 { return math.Float64bits(median) &^ pendingNaN }

// block is one erase unit. Per-page state lives in the chip-wide record
// table (pageRec) and flag arena; the block itself holds its write
// pointer, wear and bAP state, and the payload store, which a
// timing-only run never creates.
type block struct {
	// data holds the stored payload bytes per page. It is created by the
	// block's first non-empty Program and kept across erases; a nil entry
	// below writePtr is a page programmed with a zero-length payload.
	data     [][]byte
	writePtr int // next page to program (append-only discipline)
	// flagEnd is one past the highest page whose pAP flag is programmed.
	// The FTL only locks programmed pages, but the raw command set does not
	// stop a pLock beyond writePtr, so Erase clears records up to whichever
	// of the two is higher.
	flagEnd  int
	peCycles int
	// sslCenter > 0 means bLock programmed the SSL to that center Vth.
	sslCenter  float64
	sslLockDay float64
}

// payload returns the page's stored bytes: nil when erased, zero-length
// when programmed without data.
func (blk *block) payload(page int) []byte {
	if page >= blk.writePtr {
		return nil
	}
	if blk.data == nil || blk.data[page] == nil {
		return emptyPage
	}
	return blk.data[page]
}

// Chip is one emulated NAND die.
type Chip struct {
	geo    Geometry
	blocks []block
	recs   []pageRec // one per page, block-major

	// The pAP flag of a locked page is k spare cells (§5.3); only locked
	// pages have one. Its papFlag slot is carved from fixed-size chunks
	// that are never moved; Erase returns slots to flagFree.
	flagChunks [][]papFlag
	flagSlots  uint32   // slots handed out from flagChunks so far
	flagFree   []uint32 // retired slots, reused before the arena grows

	// Address arithmetic hoisted out of the per-op path at New:
	// Geometry.PagesPerBlock and PagesPerWL evaluate a CellKind switch.
	pagesPerBlock int
	pagesPerWL    int

	// flagsProgrammed counts the pAP flags programmed so far, numbering
	// them in program order; flagsDrawn is how many of those numbers have
	// had their cells drawn from rng (see drawFlags).
	flagsProgrammed, flagsDrawn uint64

	flagModel vth.FlagModel // pAP flag cells
	sslModel  vth.SSLModel  // bAP / SSL cells
	// flagMean is the pAP flag cells' mean Vth right after a pLock at
	// vth.PLockPoint, the one operating point of every chip.
	flagMean float64

	rng *rand.Rand

	// dayOffset lets tests and the secure-delete example advance
	// "wall-clock" retention time independently of the µs-scale
	// simulation clock.
	dayOffset float64

	// faults, when set, decides per-operation failures and the bit errors
	// of Read's bus transfer (see internal/fault).
	faults *fault.Injector

	// cut, when set, is the device-wide power-loss schedule (see
	// WithPowerCut); mutating ops check it at pulse start.
	cut *fault.CutState

	opCount [opKinds]uint64

	// Hot-path scratch and recycle pools. A chip is driven by one
	// goroutine at a time (the device model serializes operations per
	// chip), so a single scratch buffer per chip suffices.
	readBuf  []byte                 // Read's result and a locked page's zeros — see Read's aliasing rule
	cellBuf  [vth.FlagCells]float64 // drawFlags' k cell draws, reordered for the median
	pendBuf  []uint32               // drawFlags' slots still waiting for their draws
	pagePool [][]byte               // retired page payload buffers, refilled by Erase
}

// flagChunkSlots is how many flag slots one arena chunk holds (4 KiB):
// small enough that a lightly locked chip stays small, large
// enough that growing costs one allocation per 256 locks.
const flagChunkSlots = 256

// rec returns the page's record; the address must have passed checkAddr.
func (c *Chip) rec(a PageAddr) *pageRec {
	return &c.recs[a.Block*c.pagesPerBlock+a.Page]
}

// blockRecs returns the records of a block's first n pages.
func (c *Chip) blockRecs(blockIdx, n int) []pageRec {
	first := blockIdx * c.pagesPerBlock
	return c.recs[first : first+n]
}

// flagSlot returns a programmed flag's arena slot.
func (c *Chip) flagSlot(idx uint32) *papFlag {
	i := int(idx - 1)
	return &c.flagChunks[i/flagChunkSlots][i%flagChunkSlots]
}

// flagAt returns a programmed flag's arena slot for a read of its vote,
// drawing every pending flag's cells first if this one's are not drawn.
func (c *Chip) flagAt(idx uint32) *papFlag {
	f := c.flagSlot(idx)
	if f.median != f.median {
		c.drawFlags()
	}
	return f
}

// programFlag programs the page's k pAP flag cells at day: it takes an
// arena slot and tags it with the flag's program ordinal, leaving the
// cells to drawFlags.
func (c *Chip) programFlag(blk *block, page int, rec *pageRec, day float64) {
	if n := len(c.flagFree); n > 0 {
		rec.flag = c.flagFree[n-1]
		c.flagFree = c.flagFree[:n-1]
	} else {
		if int(c.flagSlots) == len(c.flagChunks)*flagChunkSlots {
			c.flagChunks = append(c.flagChunks, make([]papFlag, flagChunkSlots))
		}
		c.flagSlots++
		rec.flag = c.flagSlots
	}
	*c.flagSlot(rec.flag) = papFlag{median: pendingMedian(c.flagsProgrammed), day: day}
	c.flagsProgrammed++
	if page >= blk.flagEnd {
		blk.flagEnd = page + 1
	}
}

// drawFlags draws the k cells of every flag programmed since the last
// draw and stores their median in the slot that still carries the flag's
// ordinal. The draws run in program order and include the flags erased
// since, whose medians land in no live flag: NormFloat64 takes a
// variable number of the source's values, so a flag's place in the
// stream can only be reached by drawing everything before it, and every
// flag thus gets the values it would have got had it been drawn when
// programmed. Afterwards no slot holds a pending median.
func (c *Chip) drawFlags() {
	pend := c.pendBuf[:0]
	for idx := uint32(1); idx <= c.flagSlots; idx++ {
		if m := c.flagSlot(idx).median; m != m {
			pend = append(pend, idx)
		}
	}
	c.pendBuf = pend
	slices.SortFunc(pend, func(a, b uint32) int {
		return cmp.Compare(ordinalOf(c.flagSlot(a).median), ordinalOf(c.flagSlot(b).median))
	})
	for ord := c.flagsDrawn; ord < c.flagsProgrammed; ord++ {
		c.flagModel.SampleCells(c.cellBuf[:], c.flagMean, c.rng)
		median := medianOf(&c.cellBuf)
		if len(pend) > 0 && ordinalOf(c.flagSlot(pend[0]).median) == ord {
			c.flagSlot(pend[0]).median = median
			pend = pend[1:]
		}
	}
	c.flagsDrawn = c.flagsProgrammed
}

// medianOf returns the median of a flag's k cells, reordering them. The
// nine values go through a 19-exchange median network of branch-free
// min/max: a sort's comparisons of random draws mispredict, which made
// it cost more than drawing the cells.
func medianOf(p *[vth.FlagCells]float64) float64 {
	cx := func(i, j int) { p[i], p[j] = min(p[i], p[j]), max(p[i], p[j]) }
	cx(1, 2)
	cx(4, 5)
	cx(7, 8)
	cx(0, 1)
	cx(3, 4)
	cx(6, 7)
	cx(1, 2)
	cx(4, 5)
	cx(7, 8)
	cx(0, 3)
	cx(5, 8)
	cx(4, 7)
	cx(3, 6)
	cx(1, 4)
	cx(2, 5)
	cx(4, 7)
	cx(4, 2)
	cx(6, 4)
	cx(4, 2)
	return p[4]
}

// emptyPage marks a programmed page with a zero-length payload (distinct
// from nil = erased). It is shared: zero-length slices are immutable.
var emptyPage = []byte{}

// takePage returns a payload buffer of length n, recycling a retired
// page buffer when one fits. Contents are undefined; callers overwrite.
func (c *Chip) takePage(n int) []byte {
	if n == 0 {
		return emptyPage
	}
	if k := len(c.pagePool); k > 0 && cap(c.pagePool[k-1]) >= n {
		buf := c.pagePool[k-1][:n]
		c.pagePool[k-1] = nil
		c.pagePool = c.pagePool[:k-1]
		return buf
	}
	// Full page capacity so the buffer is reusable for any later payload.
	return make([]byte, n, c.geo.PageBytes)
}

// Option configures a Chip.
type Option func(*Chip)

// WithSeed fixes the chip's RNG seed (default 1).
func WithSeed(seed int64) Option {
	return func(c *Chip) { c.rng.Seed(seed) }
}

// WithFaults attaches a fault injector: Program, Erase, PLock and BLock
// can then fail with the injector's configured probabilities (returning
// ErrProgramFailed etc. alongside their full latency), and Read draws
// injected bit errors judged against the ECC limit.
func WithFaults(inj *fault.Injector) Option {
	return func(c *Chip) { c.faults = inj }
}

// New builds a chip with the given geometry.
func New(geo Geometry, opts ...Option) (*Chip, error) {
	return NewFrom(nil, geo, opts...)
}

// NewFrom is New building on a retired chip's storage: the page records,
// flag arena and scratch buffers come from old through adopt.Zeroed
// where they are large enough, and everything else about the result is
// what New sets — New is this body with no donor. Payload stores and the
// payload buffer pool are never taken over. old must not be used
// afterwards; nil is allowed.
func NewFrom(old *Chip, geo Geometry, opts ...Option) (*Chip, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if old == nil {
		old = &Chip{}
	}
	// The generator object is storage too (a 5-KB state vector): Seed puts
	// it in exactly the state rand.NewSource(seed) starts from.
	rng := old.rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	rng.Seed(1)
	flagModel := vth.DefaultFlagModel()
	c := &Chip{
		geo:    geo,
		blocks: adopt.Zeroed(old.blocks, geo.Blocks),
		recs:   adopt.Zeroed(old.recs, geo.TotalPages()),
		// Adopted chunks are zeroed and handed out again from slot 1, so
		// slot numbers do not depend on how many chunks there already are.
		flagChunks: adopt.ZeroedEach(old.flagChunks, flagChunkSlots),
		flagFree:   adopt.Zeroed(old.flagFree, 0),
		pendBuf:    adopt.Zeroed(old.pendBuf, 0),
		flagModel:  flagModel,
		flagMean:   flagModel.ProgrammedMean(vth.PLockPoint.V, vth.PLockPoint.T),
		sslModel:   vth.DefaultSSLModel(),
		rng:        rng,
		readBuf:    adopt.Zeroed(old.readBuf, geo.PageBytes),

		pagesPerBlock: geo.PagesPerBlock(),
		pagesPerWL:    geo.PagesPerWL(),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.geo }

// FaultCounts returns what the attached fault injector did so far (the
// zero value when no injector is attached).
func (c *Chip) FaultCounts() fault.Counts {
	if c.faults == nil {
		return fault.Counts{}
	}
	return c.faults.Counts()
}

// AdvanceDays moves the chip's retention clock forward, aging every
// programmed cell and flag. Used by tests and the secure-delete example to
// demonstrate multi-year lock durability.
func (c *Chip) AdvanceDays(days float64) {
	if days < 0 {
		panic("nand: cannot rewind retention time")
	}
	c.dayOffset += days
}

// nowDays converts a simulation timestamp to fractional days, including
// any AdvanceDays offset.
func (c *Chip) nowDays(now sim.Micros) float64 {
	const microsPerDay = 24 * 3600 * 1e6
	return c.dayOffset + float64(now)/microsPerDay
}

func (c *Chip) checkAddr(a PageAddr) error {
	// Unsigned compares fold the negative cases into the upper bounds.
	if uint(a.Block) >= uint(len(c.blocks)) || uint(a.Page) >= uint(c.pagesPerBlock) {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	return nil
}
