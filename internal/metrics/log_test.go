package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// boundarySizes straddle the chunk edges of a Log.
var boundarySizes = []int{0, 1, LogChunk - 1, LogChunk, LogChunk + 1, 3*LogChunk + 7}

func TestLogChunkBoundaries(t *testing.T) {
	for _, n := range boundarySizes {
		var l Log[int]
		var first *int
		for i := 0; i < n; i++ {
			l.Append(i * 3)
			if i == 0 {
				first = l.At(0)
			}
		}
		if l.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, l.Len())
		}
		if want := (n + LogChunk - 1) / LogChunk; len(l.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(l.chunks), want)
		}
		for i := 0; i < n; i++ {
			if got := *l.At(i); got != i*3 {
				t.Fatalf("n=%d: At(%d) = %d, want %d", n, i, got, i*3)
			}
		}
		if n > 0 && first != l.At(0) {
			t.Fatalf("n=%d: element 0 moved while the log grew", n)
		}
	}
}

func TestLogAtOutOfRangePanics(t *testing.T) {
	var l Log[int]
	l.Append(1)
	for _, i := range []int{-1, 1, LogChunk} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) on a one-element log did not panic", i)
				}
			}()
			l.At(i)
		}()
	}
}

// randomValues has repeats, negatives and an infinity, in no order. All
// finite values are multiples of 1/8, so their sum is exact in any order.
func randomValues(n int) []float64 {
	rng := rand.New(rand.NewSource(int64(n) + 1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(2000)-1000) / 8
	}
	if n > 2 {
		xs[n/2] = math.Inf(1)
	}
	return xs
}

// refQuantile is Sample.Quantile's definition on a plain sorted slice.
func refQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := math.Min(math.Max(q, 0), 1) * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkSample compares every read accessor with a plain sorted slice.
func checkSample(t *testing.T, label string, s *Sample, values []float64) {
	t.Helper()
	want := append([]float64{}, values...)
	sort.Float64s(want)
	if s.N() != len(want) {
		t.Fatalf("%s: N = %d, want %d", label, s.N(), len(want))
	}
	if got := s.Sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Sorted differs from the sorted slice", label)
	}
	var sum float64
	for _, x := range values {
		sum += x
	}
	if got := s.Mean(); len(want) > 0 && got != sum/float64(len(want)) {
		t.Fatalf("%s: Mean = %v, want %v", label, got, sum/float64(len(want)))
	}
	for _, q := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.75, 0.99, 1, 2} {
		if got, ref := s.Quantile(q), refQuantile(want, q); !sameFloat(got, ref) {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", label, q, got, ref)
		}
	}
	if !sameFloat(s.Min(), refQuantile(want, 0)) || !sameFloat(s.Max(), refQuantile(want, 1)) {
		t.Fatalf("%s: Min/Max = %v/%v", label, s.Min(), s.Max())
	}
	if got := s.Values(); len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Values differs from the sorted slice", label)
	}
	above := 0
	for _, x := range want {
		if x > 10 {
			above++
		}
	}
	if got := s.FractionAbove(10); len(want) > 0 && got != float64(above)/float64(len(want)) {
		t.Fatalf("%s: FractionAbove(10) = %v, want %d/%d", label, got, above, len(want))
	}
	if s.N() != len(want) {
		t.Fatalf("%s: N = %d after the order statistics, want %d", label, s.N(), len(want))
	}
}

func TestSampleChunkBoundaries(t *testing.T) {
	for _, n := range boundarySizes {
		values := randomValues(n)
		label := func(how string) string { return fmt.Sprintf("%s n=%d", how, n) }

		var added Sample
		for _, x := range values {
			added.Add(x)
		}
		checkSample(t, label("Add"), &added, values)

		var all Sample
		all.AddAll(values...)
		checkSample(t, label("AddAll"), &all, values)

		// Reserve keeps the whole sample in one slice, however large.
		var reserved Sample
		reserved.Reserve(n)
		for _, x := range values {
			reserved.Add(x)
		}
		if reserved.tail.Len() != 0 {
			t.Fatalf("n=%d: %d values spilled past a Reserve(n)", n, reserved.tail.Len())
		}
		checkSample(t, label("Reserve"), &reserved, values)

		// Order statistics in the middle of the stream: the sorted prefix
		// is flattened, later Adds spill again, and the next query sees
		// both. Reserve on a spilled sample flattens too.
		var mixed Sample
		for i, x := range values {
			mixed.Add(x)
			if i == n/3 {
				mixed.Quantile(0.5)
			}
			if i == 2*n/3 {
				mixed.Reserve(5)
				if mixed.tail.Len() != 0 {
					t.Fatalf("n=%d: Reserve left %d values outside the flat slice", n, mixed.tail.Len())
				}
			}
		}
		checkSample(t, label("interleaved"), &mixed, values)
	}
}

// TestSampleSpillsInsteadOfRegrowing pins the storage layout: a sample
// nobody sized grows one slice to a chunk's worth of values and then
// adds chunks, so no Add ever re-copies what is already stored.
func TestSampleSpillsInsteadOfRegrowing(t *testing.T) {
	var s Sample
	for i := 0; i < 3*LogChunk+7; i++ {
		s.Add(float64(i))
	}
	if len(s.xs) < LogChunk || len(s.xs) >= 2*LogChunk || s.N() != 3*LogChunk+7 {
		t.Fatalf("flat part holds %d of %d values, want one chunk's worth", len(s.xs), s.N())
	}
	s.Values()
	if len(s.xs) != 3*LogChunk+7 || s.tail.Len() != 0 {
		t.Fatalf("after Values: flat part %d, spilled %d", len(s.xs), s.tail.Len())
	}
}

// TestSampleReset: a sample that held m values and was Reset answers
// every query, for every n it is then given, as a new sample does; it
// keeps the storage it had, and nothing of the old values is left in it.
func TestSampleReset(t *testing.T) {
	for _, m := range boundarySizes {
		for _, sorted := range []bool{false, true} {
			for _, n := range boundarySizes {
				var s Sample
				s.AddAll(randomValues(m)...)
				if sorted {
					s.Values() // flattened: the storage is one slice
				}
				flat, chunks := cap(s.xs), len(s.tail.chunks)
				s.Reset()
				label := fmt.Sprintf("reset after %d (sorted %v), then n=%d", m, sorted, n)
				if s.N() != 0 || !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
					t.Fatalf("%s: a reset sample is not empty: N = %d", label, s.N())
				}
				if cap(s.xs) != flat || len(s.tail.chunks) != chunks {
					t.Fatalf("%s: storage %d+%d chunks before Reset, %d+%d after", label, flat, chunks, cap(s.xs), len(s.tail.chunks))
				}
				for _, c := range append([][]float64{s.xs}, s.tail.chunks...) {
					for _, x := range c[:cap(c)] {
						if x != 0 {
							t.Fatalf("%s: a reset sample still holds %v", label, x)
						}
					}
				}
				values := randomValues(n)
				var fresh Sample
				for _, x := range values {
					s.Add(x)
					fresh.Add(x)
				}
				for _, q := range []float64{0, 0.5, 0.99, 1} {
					if got, want := s.Quantile(q), fresh.Quantile(q); !sameFloat(got, want) {
						t.Fatalf("%s: Quantile(%v) = %v, a new sample says %v", label, q, got, want)
					}
				}
				checkSample(t, label, &s, values)
			}
		}
	}
	// The storage is reused: refilling a reset sample to its old size
	// allocates nothing.
	var s Sample
	s.AddAll(randomValues(3*LogChunk + 7)...)
	if allocs := testing.AllocsPerRun(5, func() {
		s.Reset()
		for i := 0; i < 3*LogChunk+7; i++ {
			s.Add(float64(i))
		}
	}); allocs != 0 {
		t.Errorf("%.0f allocations to refill a reset sample, want 0", allocs)
	}
}

func TestSeriesChunkBoundaries(t *testing.T) {
	for _, n := range boundarySizes {
		s := NewSeries("g")
		var want []Point
		for i := 0; i < n; i++ {
			ts := int64(i * 10)
			if i%LogChunk == 0 && i > 0 {
				ts -= 25 // out of order across a chunk edge: clamped to the previous point
			}
			v := float64((i * 7) % 13)
			s.Record(ts, v)
			if len(want) > 0 && ts < want[len(want)-1].T {
				ts = want[len(want)-1].T
			}
			want = append(want, Point{T: ts, V: v})
		}
		if s.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, s.Len())
		}
		for i, p := range want {
			if s.At(i) != p {
				t.Fatalf("n=%d: At(%d) = %v, want %v", n, i, s.At(i), p)
			}
		}
		if n == 0 {
			if len(s.Downsample(4)) != 0 {
				t.Fatal("empty series: Downsample not empty")
			}
			continue
		}
		for _, k := range []int{0, 1, 5, LogChunk, n, n + 1} {
			if got, ref := s.Downsample(k), refDownsample(want, k); !reflect.DeepEqual(got, ref) {
				t.Fatalf("n=%d: Downsample(%d) has %d points, the slice reference %d", n, k, len(got), len(ref))
			}
		}
	}
}

// refDownsample is Series.Downsample as it was written over one slice.
func refDownsample(pts []Point, n int) []Point {
	if n <= 0 || len(pts) <= n {
		return append([]Point{}, pts...)
	}
	first, last := pts[0], pts[len(pts)-1]
	span := last.T - first.T
	if span <= 0 {
		return []Point{first, last}
	}
	out := []Point{first}
	bucket := -1
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
