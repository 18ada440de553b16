// Package metrics provides the summary statistics used throughout the
// Evanesco experiment harnesses: samples with percentiles, the
// five-number box-plot statistics the paper's figures report, and time
// series with downsampling for the Fig. 4 style N_valid/N_invalid plots.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Sample retains all values so that exact order statistics can be computed.
// It is used for the box-plot figures where the paper reports distributions
// over thousands of wordlines, and for the per-request and per-op latency
// distributions of whole simulated runs. A small or Reserve-sized sample
// is one flat slice; past that, Adds go to a chunked Log instead of
// regrowing the slice, and the two are flattened into one slice when an
// order statistic is first asked for.
type Sample struct {
	xs     []float64    // the first values; all of them once flattened
	tail   Log[float64] // values added after xs filled up
	sorted bool         // xs is ascending and tail is empty
}

// Add appends one value.
func (s *Sample) Add(x float64) {
	s.sorted = false
	if s.tail.Len() == 0 && (len(s.xs) < cap(s.xs) || len(s.xs) < LogChunk) {
		s.xs = append(s.xs, x)
		return
	}
	s.tail.Append(x)
}

// Reset empties the sample and keeps its storage, zeroed: the flat
// slice's capacity and the tail's chunks take the Adds that follow. A
// reset sample answers every query as a new one does.
func (s *Sample) Reset() {
	s.xs = s.xs[:cap(s.xs)]
	clear(s.xs)
	s.xs = s.xs[:0]
	s.tail.Reset()
	s.sorted = false
}

// AddAll appends many values.
func (s *Sample) AddAll(xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Reserve grows the backing storage so at least n further Adds proceed
// without reallocation. It never shrinks and does not change N(). The
// Monte-Carlo campaigns size their samples up front with it.
func (s *Sample) Reserve(n int) {
	if s.tail.Len() == 0 && cap(s.xs)-len(s.xs) >= n {
		return
	}
	s.xs, s.tail = s.flat(n), Log[float64]{}
}

// flat copies every value, in insertion order, into one new slice with
// room for spare more.
func (s *Sample) flat(spare int) []float64 {
	xs := make([]float64, len(s.xs), s.N()+spare)
	copy(xs, s.xs)
	for _, c := range s.tail.chunks {
		xs = append(xs, c...)
	}
	return xs
}

// N returns the number of values.
func (s *Sample) N() int { return len(s.xs) + s.tail.Len() }

// Values returns the values in sorted order.
//
// Aliasing hazard: the returned slice is the Sample's internal storage,
// not a copy, and the call silently sorts it in place — insertion order
// is lost and later Adds re-disturb the ordering. Callers must not
// modify the slice or hold it across Adds; use Sorted for a stable,
// caller-owned copy.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return s.xs
}

// Sorted returns the values in ascending order as a freshly allocated
// slice the caller owns. Unlike Values it never exposes internal
// storage, so the copy stays valid (and stays sorted) no matter what is
// added to the Sample afterwards. The tests of the packages that keep
// samples compare against it.
//
//repro:testseam
func (s *Sample) Sorted() []float64 {
	out := s.flat(0)
	sort.Float64s(out)
	return out
}

func (s *Sample) ensureSorted() {
	if s.sorted {
		return
	}
	s.flatten()
	sort.Float64s(s.xs)
	s.sorted = true
}

// flatten moves the tail into xs, so xs holds every value.
func (s *Sample) flatten() {
	if s.tail.Len() > 0 {
		s.xs, s.tail = s.flat(0), Log[float64]{}
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation
// between closest ranks of the values in sort.Float64s order (NaN before
// every number). It returns NaN for an empty sample. An unsorted sample
// stays unsorted: the one or two ranks needed are found by selection in
// linear time, which leaves the values in an order of its own.
func (s *Sample) Quantile(q float64) float64 {
	if s.N() == 0 {
		return math.NaN()
	}
	s.flatten()
	last := len(s.xs) - 1
	if q <= 0 {
		return s.rank(0)
	}
	if q >= 1 {
		return s.rank(last)
	}
	pos := q * float64(last)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.rank(lo)
	}
	y := s.xs[hi]
	if !s.sorted {
		selectRank(s.xs, lo)
		// Nothing after lo is before xs[lo] now: rank hi is their least.
		y = extreme(s.xs[hi:], before)
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + y*frac
}

// rank returns the value sort.Float64s would put at index k.
func (s *Sample) rank(k int) float64 {
	switch {
	case s.sorted:
	case k == 0:
		return extreme(s.xs, before)
	case k == len(s.xs)-1:
		return extreme(s.xs, after)
	default:
		selectRank(s.xs, k)
	}
	return s.xs[k]
}

// Max returns the largest value (NaN when empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// FractionAbove reports the fraction of values strictly greater than limit.
// The paper uses this to report, e.g., "7.4% of RBER values exceed the ECC
// limit".
func (s *Sample) FractionAbove(limit float64) float64 {
	if s.N() == 0 {
		return 0
	}
	s.ensureSorted()
	// First index with value > limit.
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > limit })
	return float64(len(s.xs)-i) / float64(len(s.xs))
}

// BoxStats is the five-number summary drawn in the paper's box plots, plus
// the whisker bounds (1.5 IQR convention).
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLo, WhiskerHi     float64
}

// Box computes the box-plot statistics of the sample.
func (s *Sample) Box() BoxStats {
	s.ensureSorted() // every quantile below reads the sorted values
	b := BoxStats{
		Min:    s.Quantile(0),
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
		Max:    s.Quantile(1),
	}
	iqr := b.Q3 - b.Q1
	b.WhiskerLo = math.Max(b.Min, b.Q1-1.5*iqr)
	b.WhiskerHi = math.Min(b.Max, b.Q3+1.5*iqr)
	return b
}

// before orders float64s as sort.Float64s does: NaN before every number.
func before(a, b float64) bool { return a < b || (a != a && b == b) }

// after is before with its operands swapped.
func after(a, b float64) bool { return before(b, a) }

// extreme returns the value of xs that comes first in the order first
// defines: the least in sort.Float64s order for before, the greatest for
// after.
func extreme(xs []float64, first func(a, b float64) bool) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if first(x, m) {
			m = x
		}
	}
	return m
}

// selectRank reorders xs so that xs[k] is the value sort.Float64s would
// put there, with nothing before it in that order after k and nothing
// after it before k: Hoare partitioning around a median-of-three pivot,
// narrowed to the side that holds k. A range still open after about
// twice the levels a balanced split needs is sorted instead, so no input
// takes quadratic time.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2*bits.Len(uint(len(xs))) + 4; lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi])
		i, j := lo, hi
		for i <= j {
			for before(xs[i], p) {
				i++
			}
			for before(p, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] are not after p, xs[i..hi] not before it, and the
		// values strictly between j and i are p's equals.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// median3 returns the middle of three values in sort.Float64s order.
func median3(a, b, c float64) float64 {
	if before(b, a) {
		a, b = b, a
	}
	if before(c, b) {
		b = c
		if before(b, a) {
			b = a
		}
	}
	return b
}

func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g",
		b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// Point is one (t, v) observation in a time series.
type Point struct {
	T int64
	V float64
}

// Series is an append-only time series keyed by a logical clock. It is used
// for the Fig. 4 N_valid/N_invalid(f, t) plots, where t is the logical time
// that advances by one per 4 KiB host write.
type Series struct {
	Name   string
	points Log[Point]
	last   Point // copy of the newest point, so Record never reads the log back
}

// NewSeries creates a named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends an observation. Observations must be recorded with
// non-decreasing timestamps; violating timestamps are clamped.
func (s *Series) Record(t int64, v float64) {
	if s.points.Len() > 0 && t < s.last.T {
		t = s.last.T
	}
	s.last = Point{T: t, V: v}
	s.points.Append(s.last)
}

// Len returns the number of points.
func (s *Series) Len() int { return s.points.Len() }

// At returns the i-th recorded point.
func (s *Series) At(i int) Point { return *s.points.At(i) }

// Downsample reduces the series to at most n points (see Downsample).
func (s *Series) Downsample(n int) []Point {
	pts := make([]Point, s.Len())
	for i := range pts {
		pts[i] = s.At(i)
	}
	return Downsample(pts, n)
}

// Downsample reduces pts, ordered by non-decreasing T, to at most n points
// by keeping, for each of n equal-width time buckets, the last point in
// the bucket. The first and last points are always preserved. It is used
// to emit plot-friendly series from multi-million-point runs. The result
// is a new slice; pts is not modified.
func Downsample(pts []Point, n int) []Point {
	if n <= 0 || len(pts) <= n {
		return append([]Point{}, pts...)
	}
	first, last := pts[0], pts[len(pts)-1]
	span := last.T - first.T
	if span <= 0 {
		return []Point{first, last}
	}
	out := make([]Point, 0, n+2)
	out = append(out, first)
	bucket := -1 // the preserved first point is never overwritten
	for _, p := range pts[1:] {
		b := int(float64(p.T-first.T) / float64(span+1) * float64(n))
		if b != bucket {
			out = append(out, p)
			bucket = b
		} else {
			out[len(out)-1] = p
		}
	}
	if out[len(out)-1].T != last.T {
		out = append(out, last)
	}
	return out
}
