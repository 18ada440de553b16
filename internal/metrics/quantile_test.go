package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sortedQuantile is the reference Quantile checks against: the same
// sample, sorted whole before it is asked.
func sortedQuantile(xs []float64, q float64) float64 {
	var s Sample
	s.AddAll(xs...)
	s.ensureSorted()
	return s.Quantile(q)
}

// checkQuantiles asks an unsorted sample of xs for every q in turn, as
// ssd.Report asks for p50, p99 and max, and a fresh one for each q on its
// own, and wants the sorted sample's value bit for bit every time.
func checkQuantiles(t *testing.T, name string, xs []float64, qs []float64) {
	t.Helper()
	var shared Sample
	shared.AddAll(xs...)
	for _, q := range qs {
		want := sortedQuantile(xs, q)
		var fresh Sample
		fresh.AddAll(xs...)
		for who, got := range map[string]float64{"fresh": fresh.Quantile(q), "shared": shared.Quantile(q)} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, n=%d, q=%v (%s sample): Quantile %v, sorted %v", name, len(xs), q, who, got, want)
			}
		}
	}
	if shared.sorted {
		t.Errorf("%s, n=%d: Quantile sorted the sample", name, len(xs))
	}
}

// TestQuantileDifferential: Quantile by selection on an unsorted sample
// equals the sorted sample's value, bit for bit, on every input shape
// that sorting treats specially. The inputs hold no negative zero, which
// sort.Float64s and the selection may order either way against +0.
func TestQuantileDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64() * 100
			}
			return xs
		},
		"duplicates": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(4))
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i / 3)
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		"all equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 42.5
			}
			return xs
		},
		"NaN and infinities": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(6) {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = math.Inf(1 - 2*rng.Intn(2))
				default:
					xs[i] = rng.Float64()
				}
			}
			return xs
		},
	}
	qs := []float64{0, 0.5, 0.99, 1}
	for i := 0; i < 8; i++ {
		qs = append(qs, rng.Float64())
	}
	for name, gen := range inputs {
		for _, n := range []int{1, 2, 3, 7, 512, 513, 2000} {
			checkQuantiles(t, name, gen(n), qs)
		}
	}
}

// FuzzQuantile is TestQuantileDifferential on arbitrary float64s: every
// eight bytes of data are one value, with −0 made +0 and every NaN
// math.NaN(), the two cases sort.Float64s orders among equals.
func FuzzQuantile(f *testing.F) {
	for _, xs := range [][]float64{{1}, {3, 1, 2}, {math.NaN(), 1, math.Inf(-1)}, {5, 5, 5, 1}} {
		data := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
		f.Add(data, 0.5)
		f.Add(data, 0.99)
	}
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if len(data) < 8 || math.IsNaN(q) {
			return
		}
		xs := make([]float64, len(data)/8)
		for i := range xs {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			switch {
			case x == 0:
				x = 0
			case math.IsNaN(x):
				x = math.NaN()
			}
			xs[i] = x
		}
		checkQuantiles(t, fmt.Sprintf("%x", data), xs, []float64{q, 0, 1, 0.5})
	})
}
