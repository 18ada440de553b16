package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("Q1 = %v, want 100", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0.25); math.Abs(got-25.75) > 1e-9 {
		t.Fatalf("Q.25 = %v, want 25.75", got)
	}
}

func TestSampleEmptyQuantileIsNaN(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("quantile of empty sample should be NaN")
	}
}

func TestSampleFractionAbove(t *testing.T) {
	var s Sample
	s.AddAll(0.5, 0.8, 1.0, 1.1, 1.5)
	if got := s.FractionAbove(1.0); got != 0.4 {
		t.Fatalf("FractionAbove(1.0) = %v, want 0.4 (strictly greater)", got)
	}
	if got := s.FractionAbove(2.0); got != 0 {
		t.Fatalf("FractionAbove(2.0) = %v, want 0", got)
	}
	if got := s.FractionAbove(0.0); got != 1 {
		t.Fatalf("FractionAbove(0.0) = %v, want 1", got)
	}
}

func TestSampleInterleavedAddAndQuery(t *testing.T) {
	var s Sample
	s.AddAll(3, 1, 2)
	if got := s.Quantile(1); got != 3 {
		t.Fatalf("max = %v, want 3", got)
	}
	s.Add(10) // must re-sort after the next query
	if got := s.Quantile(1); got != 10 {
		t.Fatalf("max after add = %v, want 10", got)
	}
}

func TestBoxStats(t *testing.T) {
	var s Sample
	for i := 1; i <= 11; i++ {
		s.Add(float64(i))
	}
	b := s.Box()
	if b.Median != 6 {
		t.Fatalf("median = %v, want 6", b.Median)
	}
	if b.Q1 != 3.5 || b.Q3 != 8.5 {
		t.Fatalf("Q1/Q3 = %v/%v, want 3.5/8.5", b.Q1, b.Q3)
	}
	if b.Min != 1 || b.Max != 11 {
		t.Fatalf("Min/Max = %v/%v, want 1/11", b.Min, b.Max)
	}
}

func TestSeriesRecordAndClamp(t *testing.T) {
	s := new(Series)
	s.Record(10, 1)
	s.Record(5, 2) // out of order: clamped to t=10
	if s.Len() != 2 || s.At(1).T != 10 {
		t.Fatalf("%d points, second %v, want second point clamped to T=10", s.Len(), s.At(1))
	}
	if s.At(1).V != 2 {
		t.Fatalf("second point %v, want V=2", s.At(1))
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := new(Series)
	for i := 0; i < 10000; i++ {
		s.Record(int64(i), float64(i))
	}
	ds := s.Downsample(100)
	if len(ds) > 101 {
		t.Fatalf("downsampled to %d points, want <= 101", len(ds))
	}
	if ds[0].T != 0 {
		t.Fatalf("first point T = %d, want 0", ds[0].T)
	}
	if ds[len(ds)-1].T != 9999 {
		t.Fatalf("last point T = %d, want 9999", ds[len(ds)-1].T)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].T < ds[i-1].T {
			t.Fatal("downsampled series not monotonic in T")
		}
	}
}

func TestSeriesDownsampleSmall(t *testing.T) {
	s := new(Series)
	s.Record(1, 1)
	s.Record(2, 2)
	ds := s.Downsample(100)
	if len(ds) != 2 {
		t.Fatalf("short series should be returned whole, got %d points", len(ds))
	}
}

func TestSeriesDownsampleConstantTime(t *testing.T) {
	s := new(Series)
	for i := 0; i < 10; i++ {
		s.Record(5, float64(i))
	}
	ds := s.Downsample(3)
	if len(ds) < 1 {
		t.Fatal("downsample of constant-time series lost all points")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n%40)+2; i++ {
			s.Add(rng.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			if v < s.Quantile(0) || v > s.Quantile(1) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleNValuesMean(t *testing.T) {
	var s Sample
	s.AddAll(3, 1, 2)
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	vals := s.Values()
	if vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("Values not sorted: %v", vals)
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 3 {
		t.Fatal("Min/Max wrong")
	}
}

func TestBoxStatsString(t *testing.T) {
	var s Sample
	s.AddAll(1, 2, 3)
	if s.Box().String() == "" {
		t.Fatal("BoxStats String empty")
	}
}

func TestSampleSortedIsIndependentCopy(t *testing.T) {
	var s Sample
	s.AddAll(3, 1, 2)
	sorted := s.Sorted()
	if sorted[0] != 1 || sorted[1] != 2 || sorted[2] != 3 {
		t.Fatalf("Sorted = %v, want ascending", sorted)
	}
	// Mutating the copy must not leak into the Sample...
	sorted[0] = 99
	if s.Quantile(0) != 1 {
		t.Fatalf("Min = %v after mutating Sorted copy, want 1", s.Quantile(0))
	}
	// ...and later Adds must not disturb the copy (unlike Values, whose
	// returned slice aliases internal storage).
	snapshot := s.Sorted()
	s.Add(0)
	if snapshot[0] != 1 || len(snapshot) != 3 {
		t.Fatalf("Sorted snapshot disturbed by later Add: %v", snapshot)
	}
	vals := s.Values()
	if vals[0] != 0 { // documents the aliasing behaviour Sorted avoids
		t.Fatalf("Values = %v, want re-sorted internal storage", vals)
	}
}

func TestSeriesDownsampleToOne(t *testing.T) {
	s := new(Series)
	for i := 0; i < 100; i++ {
		s.Record(int64(i), float64(i))
	}
	ds := s.Downsample(1)
	if len(ds) < 2 {
		t.Fatalf("Downsample(1) = %v, must keep first and last", ds)
	}
	if ds[0].T != 0 || ds[len(ds)-1].T != 99 {
		t.Fatalf("Downsample(1) endpoints = %v, want T=0 and T=99", ds)
	}
}

func TestSeriesDownsampleAllSameTimestamp(t *testing.T) {
	s := new(Series)
	for i := 0; i < 50; i++ {
		s.Record(7, float64(i))
	}
	ds := s.Downsample(10)
	if len(ds) != 2 {
		t.Fatalf("zero-span series downsampled to %d points, want 2", len(ds))
	}
	if ds[0].T != 7 || ds[1].T != 7 {
		t.Fatalf("zero-span endpoints = %v, want both at T=7", ds)
	}
	if ds[0].V != 0 || ds[1].V != 49 {
		t.Fatalf("zero-span endpoints = %v, want first and last values", ds)
	}
}

func TestSeriesDownsampleExactlyNPoints(t *testing.T) {
	s := new(Series)
	for i := 0; i < 10; i++ {
		s.Record(int64(i), float64(i))
	}
	ds := s.Downsample(10)
	if len(ds) != 10 {
		t.Fatalf("n == len must return the series whole, got %d points", len(ds))
	}
	for i, p := range ds {
		if p.T != int64(i) || p.V != float64(i) {
			t.Fatalf("point %d = %v, want identity copy", i, p)
		}
	}
	// The copy must be caller-owned.
	ds[0].V = 99
	if s.At(0).V != 0 {
		t.Fatal("Downsample leaked internal storage")
	}
}

func TestSeriesLenAndEmptyLast(t *testing.T) {
	s := new(Series)
	if s.Len() != 0 {
		t.Fatal("empty series Len")
	}
	s.Record(1, 5)
	if s.Len() != 1 {
		t.Fatal("Len after record")
	}
}
