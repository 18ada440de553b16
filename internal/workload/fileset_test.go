package workload

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/filesys"
)

// The slice the generator used before fileSet: rank = index, delete by
// shifting the tail down. It is the specification fileSet is held to.
type sliceModel struct {
	files []*filesys.File
	keep  []bool
}

func (m *sliceModel) push(f *filesys.File, keep bool) {
	m.files = append(m.files, f)
	m.keep = append(m.keep, keep)
}

func (m *sliceModel) remove(i int) {
	m.files = append(m.files[:i], m.files[i+1:]...)
	m.keep = append(m.keep[:i], m.keep[i+1:]...)
}

// checkFileSetScript interprets script against a fileSet and the slice
// model and compares them at every rank after every operation. Byte 0
// sizes the set (for 0–7 live files, so longer scripts outgrow it); then
// each (op, arg) pair is one operation: op%8 in 0–3 pushes (op&8 marks
// the file kept), 4–5 remove rank arg%Len, 6 removes the first rank and 7
// the last.
func checkFileSetScript(t *testing.T, script []byte) {
	t.Helper()
	if len(script) == 0 {
		return
	}
	s := newFileSet(nil, int(script[0]%8))
	m := &sliceModel{}
	var nextID uint64
	for pc := 1; pc+1 < len(script); pc += 2 {
		op, arg := script[pc], int(script[pc+1])
		switch {
		case op%8 < 4:
			nextID++
			f := &filesys.File{ID: nextID}
			s.push(f, op&8 != 0)
			m.push(f, op&8 != 0)
		case len(m.files) == 0:
			continue
		case op%8 < 6:
			s.remove(arg % len(m.files))
			m.remove(arg % len(m.files))
		case op%8 == 6:
			s.remove(0)
			m.remove(0)
		default:
			s.remove(len(m.files) - 1)
			m.remove(len(m.files) - 1)
		}
		if s.Len() != len(m.files) {
			t.Fatalf("op %d: Len %d, model %d (script %v)", pc/2, s.Len(), len(m.files), script)
		}
		for r := range m.files {
			if f, keep := s.at(r); f != m.files[r] || keep != m.keep[r] {
				t.Fatalf("op %d rank %d: got file %d keep %v, model file %d keep %v (script %v)",
					pc/2, r, f.ID, keep, m.files[r].ID, m.keep[r], script)
			}
		}
	}
}

// repeatOp returns n copies of the (op, arg) pair.
func repeatOp(n int, op, arg byte) []byte {
	return bytes.Repeat([]byte{op, arg}, n)
}

// fileSetCorpus holds the edge cases by hand: it is checked by the
// property test and seeds FuzzFileSet.
var fileSetCorpus = [][]byte{
	// Fill far past the sizing (growth across a compaction), drain to
	// empty from the front, refill, drain from the back.
	append(append(append(append([]byte{1}, repeatOp(40, 0, 0)...), repeatOp(45, 6, 0)...), repeatOp(9, 8, 0)...), repeatOp(9, 7, 0)...),
	// Churn at a small population: many compactions, none of which grow.
	append([]byte{7}, bytes.Repeat([]byte{0, 0, 8, 0, 4, 1, 6, 0, 1, 0, 7, 0, 5, 2}, 30)...),
	// One file pushed and removed over and over: remove-to-empty at
	// every slot position, including the last before a compaction.
	append([]byte{0}, bytes.Repeat([]byte{0, 0, 4, 0}, 20)...),
	// Removals only ever in the middle, under steady growth.
	append([]byte{3}, bytes.Repeat([]byte{0, 0, 8, 0, 0, 0, 4, 1}, 40)...),
	// Removes on an empty set are skipped, whatever the rank.
	{2, 4, 0, 6, 0, 7, 9, 0, 0, 7, 0},
}

// fileSetScripts is the corpus plus seeded random scripts.
func fileSetScripts() [][]byte {
	scripts := append([][]byte(nil), fileSetCorpus...)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		script := make([]byte, 3+rng.Intn(800))
		rng.Read(script)
		scripts = append(scripts, script)
	}
	return scripts
}

// Property: under any interleaving of push and remove, fileSet holds the
// same file with the same flag at every rank as the slice it replaced.
func TestFileSetMatchesSliceModel(t *testing.T) {
	for _, script := range fileSetScripts() {
		checkFileSetScript(t, script)
	}
}

func FuzzFileSet(f *testing.F) {
	for _, script := range fileSetScripts()[:len(fileSetCorpus)+8] {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		checkFileSetScript(t, script)
	})
}

// A set sized for its population compacts in place: churn at the cap
// neither moves the storage nor allocates. This is what keeps a cell's
// allocation volume from rising with the number of deletes.
func TestFileSetCompactsInPlace(t *testing.T) {
	const maxLive = 100
	s := newFileSet(nil, maxLive)
	files := make([]*filesys.File, maxLive+1)
	for i := range files {
		files[i] = &filesys.File{ID: uint64(i + 1)}
		s.push(files[i], false)
	}
	slots, tree := &s.slots[0], &s.tree[0]
	rng := rand.New(rand.NewSource(3))
	churn := func() {
		for i := 0; i < 10*len(s.slots); i++ {
			s.remove(rng.Intn(s.Len()))
			s.push(files[i%len(files)], false)
		}
	}
	if allocs := testing.AllocsPerRun(5, churn); allocs != 0 {
		t.Errorf("churn at the population cap allocated %.0f times per run", allocs)
	}
	if &s.slots[0] != slots || &s.tree[0] != tree || len(s.slots) != 2*(maxLive+1) {
		t.Error("storage was reallocated although the population never exceeded its sizing")
	}
	if s.Len() != maxLive+1 {
		t.Fatalf("Len = %d after balanced churn, want %d", s.Len(), maxLive+1)
	}
}
