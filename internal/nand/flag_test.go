package nand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/nand/vth"
	"repro/internal/nand/vth/vthtest"
)

// kCellVote is the pAP flag read as the majority circuit does it: every
// one of the k cells decayed by the retention loss since the lock, then
// counted against ReadRef.
func (c *Chip) kCellVote(cells []float64, lockDay, day float64) bool {
	elapsed := day - lockDay
	if elapsed <= 0 {
		return vthtest.MajorityReadsDisabled(c.flagModel, cells)
	}
	decay := c.flagModel.ProgrammedMean(vth.PLockPoint.V, vth.PLockPoint.T) -
		c.flagModel.MeanAfter(vth.PLockPoint.V, vth.PLockPoint.T, elapsed, 0)
	aged := make([]float64, len(cells))
	for i, v := range cells {
		aged[i] = v - decay
	}
	return vthtest.MajorityReadsDisabled(c.flagModel, aged)
}

// flagCase is one pAP flag read: its k cells, locked on lockDay and
// sensed on day.
type flagCase struct {
	name         string
	cells        []float64
	lockDay, day float64
	// crossesByDecay says the vote on day differs from the lock-day one.
	crossesByDecay bool
}

// TestFlagVoteDifferential checks the stored median against the k-cell
// majority vote it replaces. Locks the chip programs itself are replayed
// from the same seed and read back at random ages; hand-built cell sets
// cover what random draws almost never hit.
func TestFlagVoteDifferential(t *testing.T) {
	const k = vth.FlagCells
	geo := smallGeo()
	c, err := New(geo, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	replay := rand.New(rand.NewSource(5))
	ages := rand.New(rand.NewSource(6))
	var flips int
	for b := 0; b < geo.Blocks; b++ {
		for p := 0; p < geo.PagesPerBlock(); p++ {
			a := PageAddr{Block: b, Page: p}
			mustProgram(t, c, a, nil)
			mustPLock(t, c, a)
			cells := make([]float64, k)
			c.flagModel.SampleCells(cells, c.flagModel.MeanAfter(vth.PLockPoint.V, vth.PLockPoint.T, 0, 0), replay)
			lockDay := c.nowDays(0)
			for i := range 5 {
				// The lock day, then log-uniform ages up to ~300 years:
				// enough decay to flip some votes and not others.
				day := lockDay
				if i > 0 {
					day += math.Pow(10, 5*ages.Float64())
				}
				want := c.kCellVote(cells, lockDay, day)
				if got := c.pageLockedAt(c.rec(a), day); got != want {
					t.Fatalf("%v at day %v: median says locked=%v, the %d-cell vote %v", a, day, got, k, want)
				}
				if !want {
					flips++
				}
			}
		}
	}
	if flips == 0 {
		t.Error("no vote flipped to enabled: the ages never reached the decay that matters")
	}

	c = newTestChip(t)
	readRef := c.flagModel.ReadRef
	decayAt := func(days float64) float64 {
		return c.flagModel.ProgrammedMean(vth.PLockPoint.V, vth.PLockPoint.T) - c.flagModel.MeanAfter(vth.PLockPoint.V, vth.PLockPoint.T, days, 0)
	}
	// onRefAfter is the median that decays to exactly ReadRef in days.
	onRefAfter := func(days float64) float64 {
		d := decayAt(days)
		m := readRef + d
		for m-d > readRef {
			m = math.Nextafter(m, math.Inf(-1))
		}
		for m-d < readRef {
			m = math.Nextafter(m, math.Inf(1))
		}
		return m
	}
	above, below := readRef+0.25, readRef-0.25
	cases := []flagCase{
		{"ties on both sides, majority below", []float64{below, above, below, above, below, above, below, above, below}, 3, 3, false},
		{"ties on both sides, majority above", []float64{above, above, below, above, below, above, below, above, below}, 3, 3, false},
		{"all cells equal", []float64{above, above, above, above, above, above, above, above, above}, 0, 0, false},
		{"median exactly at ReadRef", []float64{readRef, above, above, above, above, below, below, below, below}, 0, 0, false},
		{"median tied at ReadRef", []float64{readRef, readRef, readRef, above, above, above, below, below, readRef}, 0, 0, false},
		{"zero elapsed", []float64{above, above, above, above, above, below, below, below, below}, 100, 100, false},
		{"negative elapsed", []float64{above, above, above, above, above, below, below, below, below}, 100, 40, false},
		{"negative elapsed, majority below", []float64{above, above, above, above, below, below, below, below, below}, 100, 40, false},
		{"decay moves the median across ReadRef", []float64{readRef + 0.05, 2, 2, 2, 2, 0, 0, 0, 0}, 10, 10 + 365, true},
		{"decay lands the median exactly on ReadRef", []float64{onRefAfter(30), 2, 2, 2, 2, 0, 0, 0, 0}, 5, 35, true},
		{"decay too small to cross", []float64{readRef + 2*decayAt(365), 2, 2, 2, 2, 0, 0, 0, 0}, 0, 365, false},
	}
	rng := rand.New(rand.NewSource(12))
	for i := range 2000 {
		// Cells around ReadRef on a 1/16 V grid, so that ties are common.
		cells := make([]float64, k)
		for j := range cells {
			cells[j] = readRef + math.Round(rng.NormFloat64()*8)/16
		}
		lockDay := 100 * rng.Float64()
		day := lockDay + 400*rng.Float64() - 50
		if i%5 == 0 {
			day = lockDay
		}
		cases = append(cases, flagCase{name: "random", cells: cells, lockDay: lockDay, day: day})
	}

	a := PageAddr{Block: 0, Page: 0}
	mustProgram(t, c, a, nil)
	mustPLock(t, c, a)
	rec := c.rec(a)
	for _, tc := range cases {
		// Store the flag as programFlag does, and check that its median is
		// the sorted cells' middle one, bit for bit.
		median := medianOf((*[k]float64)(slices.Clone(tc.cells)))
		sorted := slices.Clone(tc.cells)
		slices.Sort(sorted)
		if median != sorted[k/2] {
			t.Errorf("%s: median of %v is %v, sorted middle %v", tc.name, tc.cells, median, sorted[k/2])
		}
		*c.flagSlot(rec.flag) = papFlag{median: median, day: tc.lockDay}
		want := c.kCellVote(tc.cells, tc.lockDay, tc.day)
		if got := c.pageLockedAt(rec, tc.day); got != want {
			t.Errorf("%s: cells %v locked on day %v, read on day %v: median says locked=%v, the %d-cell vote %v",
				tc.name, tc.cells, tc.lockDay, tc.day, got, k, want)
		}
		if tc.name == "random" {
			continue
		}
		if fresh := c.kCellVote(tc.cells, tc.lockDay, tc.lockDay); (fresh != want) != tc.crossesByDecay {
			t.Errorf("%s: vote %v on the lock day and %v on day %v: the case does not test what it names",
				tc.name, fresh, want, tc.day)
		}
	}
}

// TestLockFootprint bounds what pLocks cost in chip storage: a locked
// page's flag is 16 bytes in the arena, whose chunks are filled before
// the next one is made, and a block erase hands its slots to the next
// locks instead of growing the arena.
func TestLockFootprint(t *testing.T) {
	geo := DefaultGeometry()
	geo.Blocks = 8
	c, err := New(geo)
	if err != nil {
		t.Fatal(err)
	}
	arenaBytes := func() int {
		n := 0
		for _, chunk := range c.flagChunks {
			n += cap(chunk) * int(unsafe.Sizeof(chunk[0]))
		}
		return n
	}
	const perPage, chunkBytes = 16, flagChunkSlots * 16
	ppb := geo.PagesPerBlock()
	locked := 0
	lockBlock := func(b, pages int) {
		for p := 0; p < pages; p++ {
			a := PageAddr{Block: b, Page: p}
			mustProgram(t, c, a, nil)
			mustPLock(t, c, a)
		}
	}
	// Pages per block is not a multiple of the chunk size, so the last
	// chunk is part-used at most checks.
	for b := 0; b < geo.Blocks; b++ {
		lockBlock(b, ppb-b)
		locked += ppb - b
		if got, limit := arenaBytes(), perPage*locked+chunkBytes; got > limit {
			t.Fatalf("%d locked pages hold a %d-byte flag arena, want at most %d (16 B a page plus one chunk)", locked, got, limit)
		}
	}
	held := arenaBytes()
	if _, err := c.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	lockBlock(0, ppb)
	if got := arenaBytes(); got != held {
		t.Errorf("relocking an erased block grew the flag arena from %d to %d bytes", held, got)
	}
}
