package adopt_test

import (
	"strings"
	"testing"

	"repro/internal/adopt"
	"repro/internal/adopt/adopttest"
)

func TestZeroed(t *testing.T) {
	old := []int{1, 2, 3, 4, 5, 6}[:4]
	got := adopt.Zeroed(old, 3)
	if len(got) != 3 || &got[0] != &old[0] {
		t.Fatalf("a donor of capacity 6 was not reused for 3 elements (len %d)", len(got))
	}
	for i, v := range got[:cap(got)] {
		if v != 0 {
			t.Errorf("element %d of the adopted array still holds %d", i, v)
		}
	}
	if got := adopt.Zeroed(old, 7); len(got) != 7 || cap(got) != 7 {
		t.Errorf("a donor that is too small: len %d cap %d, want a new slice of 7", len(got), cap(got))
	}
	if got := adopt.Zeroed([]int(nil), 2); len(got) != 2 {
		t.Errorf("no donor: len %d, want 2", len(got))
	}
	if got := adopt.Zeroed(old, 0); len(got) != 0 || cap(got) != 6 {
		t.Errorf("adopting for a free list: len %d cap %d, want 0 and 6", len(got), cap(got))
	}
}

func TestZeroedEach(t *testing.T) {
	list := [][]byte{{1, 2}, {3}, {4, 5, 6}}[:2]
	got := adopt.ZeroedEach(list, 1)
	if len(got) != 2 || len(got[0]) != 1 || got[0][0] != 0 || cap(got[0]) != 2 || got[1][0] != 0 {
		t.Errorf("adopted list %v", got)
	}
	if spare := got[:3][2]; spare != nil {
		t.Errorf("a buffer survived in the list's spare capacity: %v", spare)
	}
	if adopt.ZeroedEach([][]byte(nil), 4) != nil {
		t.Error("a nil list did not stay nil")
	}
}

type thing struct {
	table []int32
	free  [][]int
	next  *thing
	rate  float64
}

// TestDiff checks the comparison the adopted-≡-fresh tests rest on: it
// must let retained empty storage pass and must see anything else.
func TestDiff(t *testing.T) {
	fresh := func() *thing { return &thing{table: []int32{0, 7}, next: &thing{rate: 0.5}} }
	same := fresh()
	same.free = [][]int{make([]int, 0, 8), {}}
	same.table = append(make([]int32, 0, 16), 0, 7)
	if d := adopttest.Diff(fresh(), same); d != "" {
		t.Errorf("retained empty storage reported as a difference: %s", d)
	}
	for name, dirty := range map[string]func(*thing){
		"value":          func(x *thing) { x.table[0] = 1 },
		"nested value":   func(x *thing) { x.next.rate = 0.25 },
		"length":         func(x *thing) { x.table = x.table[:1] },
		"spare capacity": func(x *thing) { x.table = append(x.table, 9)[:2] },
		"spare buffer":   func(x *thing) { x.free = [][]int{append(make([]int, 0, 4), 3)[:0]} },
		"nil pointer":    func(x *thing) { x.next = nil },
	} {
		x := fresh()
		dirty(x)
		if d := adopttest.Diff(fresh(), x); d == "" {
			t.Errorf("%s: difference not seen", name)
		} else if !strings.HasPrefix(d, ".") {
			t.Errorf("%s: report %q does not start with a field path", name, d)
		}
	}
}
