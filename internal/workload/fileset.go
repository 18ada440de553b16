package workload

import (
	"math/bits"

	"repro/internal/adopt"
	"repro/internal/filesys"
)

// fileSet is the generator's live-file population: an order-statistic set
// kept in creation order, so that rank r names the same file it would in
// a slice that deletes by shifting the tail down — without the shift.
//
// Files occupy append-only slots; a removed file leaves a nil slot behind.
// A Fenwick tree over the live flags turns a rank into its slot by binary
// lifting, so at and remove cost O(log cap) and push costs O(log cap)
// amortised: when the slots run out the live files are compacted to the
// front in place (which keeps their order, hence every rank) and the tree
// is rebuilt in O(cap). The slots are sized once, for twice the largest
// population the generator allows, so compaction frees at least half of
// them and nothing is reallocated while a workload runs.
type fileSet struct {
	slots []*filesys.File // creation order; nil = removed
	keep  []bool          // parallel to slots: spared by deleteOne
	tree  []int32         // 1-based Fenwick tree of live counts, len(slots)+1
	used  int             // slots[:used] have been handed out
	live  int
}

// newFileSet returns an empty set sized for maxLive files, on old's
// arrays (through adopt) where they are large enough; old may be nil.
func newFileSet(old *fileSet, maxLive int) *fileSet {
	if old == nil {
		old = &fileSet{}
	}
	n := 2 * (maxLive + 1)
	// An empty set's tree is all zeros.
	return &fileSet{
		slots: adopt.Zeroed(old.slots, n),
		keep:  adopt.Zeroed(old.keep, n),
		tree:  adopt.Zeroed(old.tree, n+1),
	}
}

// Len returns the number of live files.
func (s *fileSet) Len() int { return s.live }

// at returns the rank-th live file in creation order (0 <= rank < Len)
// and whether it is protected from deletion.
func (s *fileSet) at(rank int) (f *filesys.File, keep bool) {
	i := s.slot(rank)
	return s.slots[i], s.keep[i]
}

// remove deletes the rank-th live file; the files behind it move up one
// rank.
func (s *fileSet) remove(rank int) {
	i := s.slot(rank)
	s.slots[i] = nil
	s.live--
	for j := i + 1; j < len(s.tree); j += j & -j {
		s.tree[j]--
	}
}

// push adds f as the last file in creation order.
func (s *fileSet) push(f *filesys.File, keep bool) {
	if s.used == len(s.slots) {
		s.compact()
	}
	i := s.used
	s.used++
	s.slots[i], s.keep[i] = f, keep
	s.live++
	// Every tree node covering slot i also covers only unused slots
	// beyond it, so a plain point update is enough.
	for j := i + 1; j < len(s.tree); j += j & -j {
		s.tree[j]++
	}
}

// slot returns the index of the rank-th live slot: the largest position
// whose prefix holds at most rank live files, found by descending the
// tree's implicit binary structure.
func (s *fileSet) slot(rank int) int {
	pos := 0
	for step := 1 << (bits.Len(uint(len(s.slots))) - 1); step > 0; step >>= 1 {
		if next := pos + step; next <= len(s.slots) && int(s.tree[next]) <= rank {
			pos = next
			rank -= int(s.tree[next])
		}
	}
	return pos
}

// compact squeezes the removed slots out in place and rebuilds the tree.
// If the live files still fill more than half the slots (never the case
// for a set sized by newFileSet) the storage doubles.
func (s *fileSet) compact() {
	w := 0
	for r := 0; r < s.used; r++ {
		if s.slots[r] != nil {
			s.slots[w], s.keep[w] = s.slots[r], s.keep[r]
			w++
		}
	}
	clear(s.slots[w:s.used])
	s.used = w
	if 2*w > len(s.slots) {
		s.resize(2 * len(s.slots))
		return
	}
	s.rebuild()
}

// resize moves the handed-out slots into storage for n and rebuilds the
// tree.
func (s *fileSet) resize(n int) {
	s.slots = append(make([]*filesys.File, 0, n), s.slots[:s.used]...)[:n]
	s.keep = append(make([]bool, 0, n), s.keep[:s.used]...)[:n]
	s.tree = make([]int32, n+1)
	s.rebuild()
}

// rebuild recomputes the tree for slots[:used] all live, as they are
// after a compaction, in O(len).
func (s *fileSet) rebuild() {
	clear(s.tree)
	for j := 1; j < len(s.tree); j++ {
		if j <= s.used {
			s.tree[j]++
		}
		if up := j + j&-j; up < len(s.tree) {
			s.tree[up] += s.tree[j]
		}
	}
}
