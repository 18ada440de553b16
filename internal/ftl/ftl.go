// Package ftl implements the Evanesco-aware flash translation layer of
// SecureSSD (§6): page-level L2P mapping, the extended page-status table
// (free / valid / invalid / secured), an append-only allocator with lazy
// block erase, greedy garbage collection, and the lock manager that turns
// invalidations of secured pages into pLock/bLock commands through a
// pluggable sanitization policy.
//
// The FTL drives flash through the Target interface; the ssd package
// provides a timing-accurate implementation backed by emulated NAND
// chips, and unit tests use lightweight fakes.
package ftl

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// PPA is a device-global physical page address.
type PPA uint32

// NoPPA marks an unmapped logical page.
const NoPPA = PPA(^uint32(0))

// Geometry describes the physical page space the FTL manages.
type Geometry struct {
	Chips         int
	BlocksPerChip int
	PagesPerBlock int
	// PagesPerWL is the number of pages per wordline (3 for TLC); used by
	// the scrubbing baseline to find wordline siblings.
	PagesPerWL int
	PageBytes  int
	// Planes is the per-chip plane count (0 is treated as 1). Blocks
	// interleave across planes (chip-local block b sits in plane
	// b mod Planes); with Planes > 1 the allocator keeps one active block
	// per plane and the write path issues multi-plane program groups.
	Planes int

	// The address arithmetic of the layout (address.go): PPAOf, Locate,
	// BlockOf, ChipOf, WLStart and the rest are methods of the embedded
	// resolver, called on the Geometry itself. Nil until Resolved attaches
	// it — a bare literal has dimensions and totals only.
	*resolver
}

// Validate checks the geometry.
func (g Geometry) Validate() error {
	if g.Chips <= 0 || g.BlocksPerChip <= 0 || g.PagesPerBlock <= 0 || g.PagesPerWL <= 0 {
		return fmt.Errorf("ftl: non-positive geometry: %d chips × %d blocks × %d pages, %d pages per wordline",
			g.Chips, g.BlocksPerChip, g.PagesPerBlock, g.PagesPerWL)
	}
	// Judged factor by factor, so an absurd dimension cannot overflow the
	// product first.
	if uint64(g.Chips) > MaxPages/uint64(g.BlocksPerChip) ||
		uint64(g.TotalBlocks()) > MaxPages/uint64(g.PagesPerBlock) {
		return fmt.Errorf("ftl: %d chips × %d blocks × %d pages exceeds the %d pages a 32-bit PPA can address",
			g.Chips, g.BlocksPerChip, g.PagesPerBlock, uint64(MaxPages))
	}
	if g.PagesPerBlock%g.PagesPerWL != 0 {
		return fmt.Errorf("ftl: PagesPerBlock %d not a multiple of PagesPerWL %d",
			g.PagesPerBlock, g.PagesPerWL)
	}
	if g.Planes < 0 {
		return fmt.Errorf("ftl: negative plane count %d", g.Planes)
	}
	if p := g.PlaneCount(); g.BlocksPerChip%p != 0 {
		return fmt.Errorf("ftl: BlocksPerChip %d not divisible across %d planes", g.BlocksPerChip, p)
	}
	return nil
}

// PlaneCount returns the effective plane count (zero Planes = 1).
func (g Geometry) PlaneCount() int {
	if g.Planes <= 1 {
		return 1
	}
	return g.Planes
}

// TotalBlocks returns the device-global block count.
func (g Geometry) TotalBlocks() int { return g.Chips * g.BlocksPerChip }

// TotalPages returns the device-global physical page count.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// TotalWLs returns the device-global wordline count.
func (g Geometry) TotalWLs() int { return g.TotalPages() / g.PagesPerWL }

// PageStatus is the extended page state of §6.
type PageStatus uint8

const (
	// PageFree is an erased, programmable page.
	PageFree PageStatus = iota
	// PageValid holds live data with no sanitization requirement
	// (written with REQ_OP_INSEC_WRITE).
	PageValid
	// PageSecured holds live data that must be sanitized on invalidation
	// (the default for every write, §6).
	PageSecured
	// PageInvalid holds stale data awaiting garbage collection. For
	// secured pages this state is only entered after sanitization.
	PageInvalid
	// PageRetired belongs to a block pulled from rotation after an erase
	// failure. Retired pages are never allocated again; their stale data
	// was destroyed (bLock or backstop scrub) before retirement.
	PageRetired
)

// NumPageStatus is the number of distinct page states.
const NumPageStatus = 5

func (s PageStatus) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageSecured:
		return "secured"
	case PageInvalid:
		return "invalid"
	case PageRetired:
		return "retired"
	default:
		return fmt.Sprintf("PageStatus(%d)", uint8(s))
	}
}

// Live reports whether the page holds current data.
func (s PageStatus) Live() bool { return s == PageValid || s == PageSecured }

// Meta is the spare-area (out-of-band) stamp a program carries with its
// payload — what real controllers persist there so a post-crash remount
// (Restore) can rebuild the mapping table from a media scan: the logical
// page, a device-wide monotone write sequence number, and the request's
// security class.
type Meta struct {
	LPA    int64
	Seq    uint64
	Secure bool
}

// Target executes flash commands on behalf of the FTL. Implementations
// account latency and parallelism; each call corresponds to exactly one
// flash operation. Dep expresses intra-request ordering: an operation may
// not start before its dependency time (e.g. a GC program depends on its
// read). The first return value is the operation's completion time.
//
// The programming operations (Program, Copyback, Move, ProgramGroup)
// stamp the destination's spare area with the Meta they are given. The
// stamp rides the program pulse: it costs no latency, draws no fault
// decision, and lands only when the program succeeds — a failed or
// power-cut-torn program leaves the page stamp-less.
//
// The fallible operations (Program, Copyback, Move, Erase, PLock, BLock)
// additionally report injected operation failures (see internal/fault).
// A non-nil error means the operation burned its full latency and failed:
// a failed Program/Copyback/Move consumed its destination page (the write
// pointer advanced, a partial payload may be readable there), a failed
// Erase/PLock/BLock left the target's state unchanged. The FTL's
// recovery ladder — retry, escalate, retire — handles each case; fault-
// free targets simply always return nil.
type Target interface {
	// Read returns the completion time only: chip bytes never cross this
	// seam, so the FTL cannot hold a view of a chip's read scratch.
	// Read-path faults (injected bit errors) are absorbed by the
	// implementation via bounded retries.
	Read(p PPA, dep sim.Micros) sim.Micros
	// Program stores data (which may be nil for timing-only runs).
	Program(p PPA, data []byte, m Meta, dep sim.Micros) (sim.Micros, error)
	// Copyback moves src to dst without a bus transfer; implementations
	// fall back to read+program semantics for the data while charging
	// only on-chip time. src and dst are always on the same chip.
	Copyback(src, dst PPA, m Meta, dep sim.Micros) (sim.Micros, error)
	// Move copies src to dst over the channel bus, inside the device: a
	// Read of src, then a Program of what it returned (after read-retry
	// exhaustion, the corrupted payload — a relocation moves damaged
	// data rather than dropping the page) that depends on the read's
	// completion. The failure contract is Program's.
	Move(src, dst PPA, m Meta, dep sim.Micros) (sim.Micros, error)
	Erase(block int, dep sim.Micros) (sim.Micros, error)
	PLock(p PPA, dep sim.Micros) (sim.Micros, error)
	BLock(block int, dep sim.Micros) (sim.Micros, error)
	// Scrub destroys a wordline in place; the in-place Vth merge cannot
	// fail (it is the recovery ladder's backstop).
	Scrub(p PPA, dep sim.Micros) sim.Micros

	// The device-parallelism commands: a wordline-batched lock pulse and
	// multi-plane read/program groups.

	// PLockWL programs the pAP flags of several stale pages on one
	// wordline with a single SBPI one-shot pulse (§5 programs flags
	// selectively per WL). All pages share the block's wordline; the
	// pulse costs one tpLock of chip time. Unlike a failed single-page
	// pLock — whose flag cells are spent — a failed batched pulse leaves
	// every requested flag unprogrammed, so the caller may degrade to
	// per-page retries.
	PLockWL(block, wl int, pages []PPA, dep sim.Micros) (sim.Micros, error)
	// ProgramGroup programs one page per plane on a single chip with one
	// shared tPROG of cell activity; the payload transfers still cross
	// the channel per page. The returned time is the group's completion;
	// outcomes are per page (same failure contract as Program). The
	// group's pages must sit on distinct planes of one chip and hold
	// consecutive logical pages: m stamps the first, page i carries LPA
	// m.LPA+i, and the pages that succeed take consecutive sequence
	// numbers from m.Seq in order.
	ProgramGroup(pages []PPA, datas [][]byte, m Meta, dep sim.Micros) (sim.Micros, []error)
	// ReadGroup reads one page per plane on a single chip with one
	// shared tREAD. It is timing-only: grouped reads serve the host read
	// path, which discards payloads above the FTL. Read faults are
	// absorbed with bounded retries like Read.
	ReadGroup(pages []PPA, dep sim.Micros) sim.Micros
}

// Policy is a sanitization strategy (§7 compares five of them). The FTL
// calls Invalidate whenever a live page becomes stale; secured pages must
// not remain readable after the call chain completes. Flush is invoked at
// the end of each host request and each GC pass so batching policies can
// aggregate pLocks into bLocks.
type Policy interface {
	Name() string
	Invalidate(f *FTL, p PPA, secured bool)
	Flush(f *FTL)
}

// Config tunes the FTL.
type Config struct {
	Geometry Geometry
	// LogicalPages is the exported capacity in pages; the rest is
	// over-provisioning for GC.
	LogicalPages int
	// GCFreeBlocksLow triggers GC on a chip when its reusable blocks
	// (free + pending erase) drop below this threshold.
	GCFreeBlocksLow int
	// Timing is used by the lock manager's pLock-vs-bLock decision rule.
	Timing LockTiming
	// LockBatch tunes the wordline-aware pLock batching of the lock
	// manager.
	LockBatch LockBatchConfig
	// Tracer receives FTL telemetry: every page copy, invalidation and
	// destruction (report.go), GC pass spans, and the lock-queue /
	// page-status / free-block gauges. Nil disables tracing at the cost
	// of one predictable branch per site.
	Tracer trace.Collector
}

// LockTiming carries the two latencies the §6 decision rule compares.
type LockTiming struct {
	PLock sim.Micros
	BLock sim.Micros
}

// LockBatchConfig tunes wordline-aware pLock batching. The lock manager
// coalesces queued pLocks that target pages of the same wordline into a
// single SBPI pulse (one tpLock instead of one per page).
type LockBatchConfig struct {
	// Enabled turns coalescing on. Off (the default), every queued pLock
	// is issued as its own one-shot pulse — exactly the pre-batching
	// behavior.
	Enabled bool
	// Deadline bounds how long a queued lock may wait for siblings, in
	// simulated µs measured between request arrivals. 0 keeps the
	// request-level guarantee: the queue is force-flushed before every
	// host request completes, so coalescing only happens within a
	// request and T_insecure is unchanged. A positive deadline defers
	// incomplete wordline groups across requests (bounding T_insecure by
	// the deadline instead); callers then need an explicit FlushLocks
	// barrier before any durability point.
	Deadline sim.Micros
	// Threshold force-flushes the whole queue when the number of queued
	// pages reaches it (0 = no threshold). Only meaningful with a
	// positive Deadline.
	Threshold int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.LogicalPages <= 0 {
		return errors.New("ftl: LogicalPages must be positive")
	}
	// The allocator needs at least one spare block per chip plus GC
	// headroom.
	minSpare := c.Geometry.Chips * (c.GCFreeBlocksLow + 1)
	if c.LogicalPages > c.Geometry.TotalPages()-minSpare*c.Geometry.PagesPerBlock {
		return fmt.Errorf("ftl: logical capacity %d pages leaves no over-provisioning (physical %d)",
			c.LogicalPages, c.Geometry.TotalPages())
	}
	if c.GCFreeBlocksLow < 1 {
		return errors.New("ftl: GCFreeBlocksLow must be >= 1")
	}
	return nil
}

// Stats aggregates the counters Fig. 14 reports.
type Stats struct {
	HostReadPages    uint64
	HostWrittenPages uint64
	HostTrimmedPages uint64
	FlashReads       uint64
	FlashPrograms    uint64
	Erases           uint64
	PLocks           uint64
	BLocks           uint64
	Scrubs           uint64
	GCRuns           uint64
	GCCopies         uint64
	// Copybacks counts GC copies served by the on-chip copyback path
	// (no bus transfer); the rest crossed the channel.
	Copybacks uint64
	// SanitizeCopies counts page copies forced by sanitization itself
	// (erSSD relocations, scrSSD sibling moves) rather than by GC.
	SanitizeCopies uint64

	// Lock-batching counters (all zero unless LockBatch.Enabled).

	// PLockBatches counts batched SBPI pulses; PLockBatchedPages counts
	// the pages they destroyed (>= 2 per pulse — single-page groups fall
	// back to the plain pLock path and count under PLocks).
	PLockBatches      uint64
	PLockBatchedPages uint64
	// PLockBatchFailures counts failed batched pulses. Each left every
	// requested flag unprogrammed and degraded to per-page pLock retries
	// (whose own failures escalate normally, so PLockFailures still
	// equals LockEscalations).
	PLockBatchFailures uint64

	// Multi-plane counters (all zero on single-plane devices).

	// ProgramGroups counts multi-plane program commands; GroupedPrograms
	// counts the pages they covered. ReadGroups/GroupedReads likewise.
	ProgramGroups   uint64
	GroupedPrograms uint64
	ReadGroups      uint64
	GroupedReads    uint64

	// Fault-recovery counters (all zero without injection).

	// ProgramFailures counts failed page programs; each quarantined the
	// consumed page and retried on a fresh one (ProgramRetries).
	ProgramFailures uint64
	ProgramRetries  uint64
	// PLockFailures counts failed pLocks; each escalated the page's
	// block to a bLock (LockEscalations).
	PLockFailures   uint64
	LockEscalations uint64
	// BLockFailures counts failed bLocks; each fell back to forced
	// copy-out + erase (RecoveryErases).
	BLockFailures  uint64
	RecoveryErases uint64
	// EraseFailures counts failed erases; each retired its block
	// (RetiredBlocks), scrubbing any still-readable stale wordlines
	// first (BackstopScrubs).
	EraseFailures  uint64
	RetiredBlocks  uint64
	BackstopScrubs uint64
}
