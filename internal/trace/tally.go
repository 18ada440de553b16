package trace

import (
	"cmp"
	"slices"
)

// tally is a duration distribution kept as exact value counts: how often
// each integer duration (µs) occurred. A run's op classes see few
// distinct durations — a chip command class usually one, a host class a
// few thousand at most — so the tally is bounded by the distinct values,
// not by the operations. Walking it in ascending order and adding each
// value once per occurrence gives the same floating-point sum and the
// same interpolated quantiles as the sorted sample of every value. Reads
// work on a sorted copy and never mutate it, so a snapshot may be taken
// mid-run.
type tally struct {
	index map[int64]int32 // duration -> its bin
	bins  []tallyBin      // in order of first occurrence
	n     uint64
	last  int32 // bin of the most recent add: the fast path for runs of equal values
}

type tallyBin struct {
	v int64
	n uint64
}

func (t *tally) add(v int64) {
	t.n++
	if int(t.last) < len(t.bins) && t.bins[t.last].v == v {
		t.bins[t.last].n++
		return
	}
	i, ok := t.index[v]
	if !ok {
		if t.index == nil {
			t.index = make(map[int64]int32)
		}
		i = int32(len(t.bins))
		t.index[v] = i
		t.bins = append(t.bins, tallyBin{v: v})
	}
	t.bins[i].n++
	t.last = i
}

// ascending returns a copy of the bins in ascending order of duration.
func (t *tally) ascending() []tallyBin {
	bins := slices.Clone(t.bins)
	slices.SortFunc(bins, func(a, b tallyBin) int { return cmp.Compare(a.v, b.v) })
	return bins
}

// sum adds every occurrence in ascending order, as a sum over the sorted
// sample does.
func (t *tally) sum() float64 { return binSum(t.ascending()) }

func binSum(bins []tallyBin) float64 {
	var s float64
	for _, b := range bins {
		x := float64(b.v)
		for k := uint64(0); k < b.n; k++ {
			s += x
		}
	}
	return s
}

// binAt returns the value of ascending rank i of ascending bins.
func binAt(bins []tallyBin, i uint64) float64 {
	for _, b := range bins {
		if i < b.n {
			return float64(b.v)
		}
		i -= b.n
	}
	panic("trace: tally rank out of range")
}

// The exported latency histograms bin a tally into 40 bins over
// [0µs, 4000µs), which spans every NAND command latency (tBERS = 3500µs
// is the slowest); host requests and GC passes that queue longer land
// above the range, which the snapshot reports as hist_overflow.
const (
	latencyHistLo   = 0
	latencyHistHi   = 4000
	latencyHistBins = 40
)

// buckets bins the tally as the exported latency histogram: the count in
// each equal-width bin, and the counts below and at or above the range.
func (t *tally) buckets() (bins [latencyHistBins]uint64, under, over uint64) {
	lo, hi := float64(latencyHistLo), float64(latencyHistHi)
	for _, b := range t.bins {
		switch x := float64(b.v); {
		case x < lo:
			under += b.n
		case x >= hi:
			over += b.n
		default:
			i := int((x - lo) / (hi - lo) * float64(latencyHistBins))
			if i == latencyHistBins { // floating-point edge
				i--
			}
			bins[i] += b.n
		}
	}
	return bins, under, over
}

// bucketUpper returns the exclusive upper bound of latency bin i, the le
// label of its OpenMetrics bucket.
func bucketUpper(i int) float64 {
	lo, hi := float64(latencyHistLo), float64(latencyHistHi)
	return lo + (hi-lo)/float64(latencyHistBins)*float64(i+1)
}

// stats summarizes the tally as latStats does the sorted sample: the
// same sum, and the same interpolation as sortedQuantile.
func (t *tally) stats() LatencyStats {
	st := LatencyStats{Count: t.n}
	if t.n == 0 {
		return st
	}
	bins := t.ascending()
	quantile := func(q float64) float64 {
		pos := q * float64(t.n-1)
		lo := uint64(pos)
		if lo >= t.n-1 {
			return float64(bins[len(bins)-1].v)
		}
		frac := pos - float64(lo)
		return binAt(bins, lo)*(1-frac) + binAt(bins, lo+1)*frac
	}
	st.MeanUs = binSum(bins) / float64(t.n)
	st.P50Us = quantile(0.5)
	st.P99Us = quantile(0.99)
	st.MaxUs = float64(bins[len(bins)-1].v)
	return st
}
