package trace

// tally is a duration distribution kept as exact value counts: how often
// each integer duration (µs) occurred. A run's op classes see few
// distinct durations — a chip command class usually one, a host class a
// few thousand at most — so the tally is bounded by the distinct values,
// not by the operations. Reads never mutate it, so the stream may read
// it mid-run.
type tally struct {
	index map[int64]int32 // duration -> its bin
	bins  []tallyBin      // in order of first occurrence
	n     uint64
	total int64 // sum of every value
	last  int32 // bin of the most recent add: the fast path for runs of equal values
}

type tallyBin struct {
	v int64
	n uint64
}

func (t *tally) add(v int64) {
	t.n++
	t.total += v
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

// sum is the tally's _sum. Every value is an integer and so is every
// partial sum, so while the total stays below 2^53 µs the float64 is
// exact: the same as a sum over the sorted sample in any order.
func (t *tally) sum() float64 { return float64(t.total) }

// The exported latency histograms bin a tally into 40 bins over
// [0µs, 4000µs), which spans every NAND command latency (tBERS = 3500µs
// is the slowest); host requests and GC passes that queue longer land
// above the range, in the +Inf bucket only.
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
