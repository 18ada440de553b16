package nand

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/nand/vth"
)

// twoPlaneGeo splits smallGeo's 8 blocks into 2 planes (even blocks on
// plane 0, odd on plane 1).
func twoPlaneGeo() Geometry {
	g := smallGeo()
	g.Planes = 2
	return g
}

func newPlaneChip(t *testing.T, opts ...Option) *Chip {
	t.Helper()
	c, err := New(twoPlaneGeo(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlaneGeometry(t *testing.T) {
	g := twoPlaneGeo()
	if g.PlaneCount() != 2 {
		t.Fatalf("PlaneCount = %d, want 2", g.PlaneCount())
	}
	// Blocks interleave round-robin across planes.
	for b := 0; b < g.Blocks; b++ {
		if got := g.PlaneOf(b); got != b%2 {
			t.Fatalf("PlaneOf(%d) = %d, want %d", b, got, b%2)
		}
	}
	// Zero planes means one plane (the pre-multi-plane default).
	if (Geometry{}).PlaneCount() != 1 {
		t.Fatal("zero-value plane count must default to 1")
	}
	// Plane count must divide the block count.
	bad := smallGeo()
	bad.Planes = 3
	if _, err := New(bad); err == nil {
		t.Fatal("8 blocks across 3 planes accepted")
	}
	neg := smallGeo()
	neg.Planes = -1
	if _, err := New(neg); err == nil {
		t.Fatal("negative plane count accepted")
	}
}

func TestProgramMultiSharesOneProg(t *testing.T) {
	c := newPlaneChip(t)
	addrs := []PageAddr{{Block: 0, Page: 0}, {Block: 1, Page: 0}}
	datas := [][]byte{[]byte("plane-zero"), []byte("plane-one")}
	lat, errs, err := c.ProgramMulti(addrs, datas, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("page %d: %v", i, e)
		}
	}
	if lat != DefaultTiming().Prog {
		t.Fatalf("multi-plane program latency %v, want one tPROG (%v)", lat, DefaultTiming().Prog)
	}
	for i, a := range addrs {
		if got := mustRead(t, c, a); !bytes.Equal(got, datas[i]) {
			t.Fatalf("plane %d read-back mismatch", i)
		}
	}
}

func TestProgramMultiPerPageOutcomes(t *testing.T) {
	c := newPlaneChip(t)
	// Block 1 page 0 is skipped, so programming page 1 there violates
	// append order — that outcome must be per-page, not fatal.
	mustProgram(t, c, PageAddr{Block: 0, Page: 0}, []byte("a"))
	_, errs, err := c.ProgramMulti(
		[]PageAddr{{Block: 0, Page: 1}, {Block: 1, Page: 1}},
		[][]byte{[]byte("b"), []byte("c")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil {
		t.Fatalf("in-order page failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrOutOfOrder) {
		t.Fatalf("out-of-order page: err = %v, want ErrOutOfOrder", errs[1])
	}
}

func TestMultiPlaneAddressDiscipline(t *testing.T) {
	c := newPlaneChip(t)
	data := [][]byte{[]byte("x"), []byte("y")}
	// Two pages on the same plane must be rejected wholesale.
	if _, _, err := c.ProgramMulti([]PageAddr{{Block: 0, Page: 0}, {Block: 2, Page: 0}}, data, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("same-plane pair: err = %v, want ErrBadAddress", err)
	}
	if _, _, err := c.ReadMulti([]PageAddr{{Block: 1, Page: 0}, {Block: 3, Page: 0}}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("same-plane read pair: err = %v, want ErrBadAddress", err)
	}
	// More addresses than planes, and empty vectors, are malformed.
	if _, _, err := c.ReadMulti([]PageAddr{{0, 0}, {1, 0}, {2, 0}}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("3 addrs on 2 planes: err = %v, want ErrBadAddress", err)
	}
	if _, _, err := c.ReadMulti(nil, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("empty vector: err = %v, want ErrBadAddress", err)
	}
	if _, _, err := c.ProgramMulti([]PageAddr{{0, 0}}, data, 0); err == nil {
		t.Fatal("mismatched addrs/datas lengths accepted")
	}
}

func TestReadMultiSharesOneRead(t *testing.T) {
	c := newPlaneChip(t)
	mustProgram(t, c, PageAddr{Block: 0, Page: 0}, []byte("p0"))
	mustProgram(t, c, PageAddr{Block: 1, Page: 0}, []byte("p1"))
	mustPLock(t, c, PageAddr{Block: 1, Page: 0})
	lat, errs, err := c.ReadMulti([]PageAddr{{Block: 0, Page: 0}, {Block: 1, Page: 0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultTiming().Read {
		t.Fatalf("multi-plane read latency %v, want one tREAD (%v)", lat, DefaultTiming().Read)
	}
	if errs[0] != nil {
		t.Fatalf("readable plane errored: %v", errs[0])
	}
	// Lock outcomes surface per page through the grouped path too.
	if !errors.Is(errs[1], ErrPageLocked) {
		t.Fatalf("locked plane: err = %v, want ErrPageLocked", errs[1])
	}
}

// PLockWL is the §5 SBPI batch: one pulse, many flag groups.
func TestPLockWLLocksSelectedSlots(t *testing.T) {
	c := newTestChip(t)
	payloads := [][]byte{[]byte("lsb"), []byte("csb"), []byte("msb")}
	for i, p := range payloads {
		mustProgram(t, c, PageAddr{Block: 0, Page: i}, p)
	}
	lat, err := c.PLockWL(0, 0, []int{0, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultTiming().PLock {
		t.Fatalf("batched pulse latency %v, want one tpLock (%v)", lat, DefaultTiming().PLock)
	}
	for i := range payloads {
		res, err := c.Read(PageAddr{Block: 0, Page: i}, 0)
		if i == 1 {
			if err != nil || !bytes.Equal(res, payloads[1]) {
				t.Fatalf("inhibited slot was disturbed: %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrPageLocked) {
			t.Fatalf("slot %d: err = %v, want ErrPageLocked", i, err)
		}
	}
}

func TestPLockWLIdempotentIsChargedNoop(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{Block: 0, Page: 0}, []byte("x"))
	if _, err := c.PLockWL(0, 0, []int{0}, 0); err != nil {
		t.Fatal(err)
	}
	slots := c.flagSlots
	lat, err := c.PLockWL(0, 0, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultTiming().PLock {
		t.Fatalf("charged no-op latency %v, want tpLock", lat)
	}
	if c.flagSlots != slots {
		t.Fatal("no-op pulse must not program the flag again")
	}
}

func TestPLockWLValidation(t *testing.T) {
	c := newTestChip(t)
	if _, err := c.PLockWL(99, 0, []int{0}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("bad block: %v", err)
	}
	if _, err := c.PLockWL(0, 99, []int{0}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("bad wordline: %v", err)
	}
	if _, err := c.PLockWL(0, 0, []int{3}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("slot beyond PagesPerWL: %v", err)
	}
}

// A failed batched pulse commits nothing: every requested page stays
// readable and a per-page retry can still succeed (unlike the
// single-page one-shot, whose flag cells are spent by failure).
func TestFaultPLockWLAtomicFailure(t *testing.T) {
	c, err := New(Geometry{
		Blocks: 4, WLsPerBlock: 4, CellKind: vth.TLC,
		PageBytes: 64, EnduranceCycles: 1000,
	}, WithSeed(1), WithFaults(fault.New(fault.Config{PLockFail: 1, Seed: 1}, 0)))
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("l"), []byte("c"), []byte("m")}
	for i, p := range payloads {
		mustProgram(t, c, PageAddr{Block: 0, Page: i}, p)
	}
	if _, err := c.PLockWL(0, 0, []int{0, 1, 2}, 0); !errors.Is(err, ErrPLockFailed) {
		t.Fatalf("err = %v, want ErrPLockFailed", err)
	}
	for i, p := range payloads {
		res, err := c.Read(PageAddr{Block: 0, Page: i}, 0)
		if err != nil || !bytes.Equal(res, p) {
			t.Fatalf("page %d not readable after failed batch: %v", i, err)
		}
	}
	if n := c.FaultCounts().PLockFails; n != 1 {
		t.Fatalf("PLockFails = %d, want 1 (one draw per pulse)", n)
	}
}
