package ftl

import "math/bits"

// This file is the one definition of the physical address layout and its
// inverse. A PPA counts pages chip-major, then block, then page:
//
//	p = (chip·BlocksPerChip + blockInChip)·PagesPerBlock + page
//
// with wordlines of PagesPerWL consecutive pages (a block starts on a
// wordline boundary because PagesPerWL divides PagesPerBlock) and blocks
// interleaved across planes (BlocksPerChip is a multiple of the plane
// count, so a block's plane is its device-global index mod Planes).
//
// Every chip operation decomposes a PPA at least once and a relocation
// half a dozen times, and none of the paper's dimensions (48 or 428
// blocks, 576 pages, 3 pages per wordline) is a power of two, so the
// decomposition must not cost a hardware division. The resolver holds
// one reciprocal per dimension instead; it is pure integer arithmetic
// with the same quotients and remainders as / and %.

// MaxPages bounds Geometry.TotalPages: PPA is 32 bits wide and the
// all-ones value is NoPPA. The reciprocals below are exact only for
// 32-bit numerators, so the same bound is their precondition.
const MaxPages = 1<<32 - 2

// recip divides 32-bit numerators by one fixed divisor d with a multiply.
// For 1 < d < 2³² and n < 2³², ⌊n/d⌋ = hi64(n·⌈2⁶⁴/d⌉) exactly: writing
// ⌈2⁶⁴/d⌉ = (2⁶⁴+e)/d with 0 ≤ e < d, the product overshoots n/d by
// n·e/(d·2⁶⁴) < 2⁻³² ≤ 1/d, and the fractional part of n/d is at most
// 1 − 1/d, so the overshoot never reaches the next integer. d == 1 has no
// 64-bit reciprocal (⌈2⁶⁴/1⌉ wraps to 0), which m == 0 marks.
type recip struct {
	m uint64
	d uint32
}

func newRecip(d int) recip {
	return recip{m: ^uint64(0)/uint64(d) + 1, d: uint32(d)}
}

func (r recip) div(n uint32) uint32 {
	if r.m == 0 {
		return n
	}
	hi, _ := bits.Mul64(uint64(n), r.m)
	return uint32(hi)
}

func (r recip) mod(n uint32) uint32 { return n - r.div(n)*r.d }

// resolver holds the address arithmetic of one geometry. Geometry embeds
// a pointer to it, so its methods are called on the Geometry — g.Locate(p),
// g.BlockOf(p) — and reach the reciprocals through that pointer without
// copying the Geometry the way a value-receiver method would. They need a
// resolved geometry: on a bare Geometry literal the pointer is nil.
type resolver struct {
	pagesPerChip, pagesPerBlock, blocksPerChip, pagesPerWL, planes recip
}

// Resolved validates the geometry and returns it with its address
// resolver attached. A resolver describes the dimensions it was built
// from: after changing a field, resolve again.
func (g Geometry) Resolved() (Geometry, error) {
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	g.resolver = &resolver{
		pagesPerChip:  newRecip(g.BlocksPerChip * g.PagesPerBlock),
		pagesPerBlock: newRecip(g.PagesPerBlock),
		blocksPerChip: newRecip(g.BlocksPerChip),
		pagesPerWL:    newRecip(g.PagesPerWL),
		planes:        newRecip(g.PlaneCount()),
	}
	return g, nil
}

// FirstPPA returns the first page of a device-global block.
func (r *resolver) FirstPPA(block int) PPA { return PPA(uint32(block) * r.pagesPerBlock.d) }

// Locate decomposes a physical page address into the chip, the
// chip-local block and the page within that block — the coordinates one
// chip operation needs, in one call.
func (r *resolver) Locate(p PPA) (chip, blockInChip, page int) {
	c, b := r.pagesPerChip.div(uint32(p)), r.pagesPerBlock.div(uint32(p))
	return int(c), int(b - c*r.blocksPerChip.d), int(uint32(p) - b*r.pagesPerBlock.d)
}

// BlockOf returns the device-global block index of a page.
func (r *resolver) BlockOf(p PPA) int { return int(r.pagesPerBlock.div(uint32(p))) }

// ChipOf returns the chip that holds a page.
func (r *resolver) ChipOf(p PPA) int { return int(r.pagesPerChip.div(uint32(p))) }

// PageInBlock returns the page offset of p within its block.
func (r *resolver) PageInBlock(p PPA) int { return int(r.pagesPerBlock.mod(uint32(p))) }

// ChipOfBlock returns the chip that holds a device-global block.
func (r *resolver) ChipOfBlock(block int) int { return int(r.blocksPerChip.div(uint32(block))) }

// BlockInChip converts a device-global block index to a chip-local one.
func (r *resolver) BlockInChip(block int) int { return int(r.blocksPerChip.mod(uint32(block))) }

// PlaneOfBlock returns the plane a device-global block belongs to.
func (r *resolver) PlaneOfBlock(block int) int { return int(r.planes.mod(uint32(block))) }

// WLIndex returns the device-global wordline index of a page (the lock
// manager's coalescing key).
func (r *resolver) WLIndex(p PPA) int { return int(r.pagesPerWL.div(uint32(p))) }

// WLSlot returns the position of p on its wordline (0 = the LSB page).
func (r *resolver) WLSlot(p PPA) int { return int(r.pagesPerWL.mod(uint32(p))) }

// WLStart returns the first page of p's wordline; the wordline is the
// PagesPerWL consecutive pages from there.
func (r *resolver) WLStart(p PPA) PPA { return p - PPA(r.pagesPerWL.mod(uint32(p))) }
