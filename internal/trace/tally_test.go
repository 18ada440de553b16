package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// TestTallyDifferential runs seeded streams through a tally and through
// a metrics.Sample of every value, and requires the histogram _sum to be
// bit-identical between the two, and the histogram buckets to be those
// of binning every value on its own.
func TestTallyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streams := map[string][]int64{"empty": nil, "single": {80}, "zero": {0, 0, 0},
		"edges": {-1, 0, 99, 100, 101, 3899, 3900, 3999, 4000, 4001, 1 << 40}}
	for _, n := range []int{2, 3, 100, 5000} {
		ties := make([]int64, n)
		runs := make([]int64, n)
		wide := make([]int64, n)
		v := int64(rng.Intn(4000))
		for i := range ties {
			ties[i] = int64(rng.Intn(7)) * 100
			if rng.Intn(50) == 0 {
				v = int64(rng.Intn(4000))
			}
			runs[i] = v
			wide[i] = int64(rng.Intn(1 << 20))
		}
		streams[fmt.Sprintf("ties/%d", n)] = ties
		streams[fmt.Sprintf("runs/%d", n)] = runs
		streams[fmt.Sprintf("distinct/%d", n)] = wide
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, xs := range streams {
		var tl tally
		var s metrics.Sample
		for _, x := range xs {
			tl.add(x)
			s.Add(float64(x))
		}
		var sum float64
		for _, x := range s.Sorted() {
			sum += x
		}
		if !same(tl.sum(), sum) {
			t.Errorf("%s: tally sum %v, sample sum %v", name, tl.sum(), sum)
		}
		distinct := map[int64]bool{}
		for _, x := range xs {
			distinct[x] = true
		}
		if len(tl.bins) != len(distinct) {
			t.Errorf("%s: %d bins for %d distinct values", name, len(tl.bins), len(distinct))
		}
		var bins [latencyHistBins]uint64
		var under, over uint64
		for _, x := range xs {
			switch {
			case x < latencyHistLo:
				under++
			case x >= latencyHistHi:
				over++
			default:
				bins[x*latencyHistBins/(latencyHistHi-latencyHistLo)]++
			}
		}
		if gotBins, gotUnder, gotOver := tl.buckets(); gotBins != bins || gotUnder != under || gotOver != over {
			t.Errorf("%s: tally buckets %v (%d under, %d over), per value %v (%d, %d)",
				name, gotBins, gotUnder, gotOver, bins, under, over)
		}
	}
}
