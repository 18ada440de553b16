package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// TestGaugeStoreDifferential checks the capped gauge store against the
// raw points it was given: exports of a store that never widened its
// buckets past 1 µs equal metrics.Downsample of the raw points, the
// store never holds 2*gaugeCap points, it always keeps the first and the
// last, and equal and clamped timestamps store the same way every time.
func TestGaugeStoreDifferential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		stride int // timestamps advance every stride points
	}{
		{"raw", gaugeCap, 1},
		{"raw, below the cap", 2*gaugeCap - 1, 1},
		{"equal timestamps merged", 30_000, 10},
		{"widened", 200_000, 1},
		{"widened, with ties", 200_000, 3},
	} {
		rng := rand.New(rand.NewSource(int64(tc.n + tc.stride)))
		var g, again gaugeStore
		var raw []metrics.Point
		var now int64 = 1000
		for i := 0; i < tc.n; i++ {
			if i%tc.stride == 0 {
				now += int64(1 + rng.Intn(40))
			}
			at := now
			if rng.Intn(50) == 0 {
				at -= 7 // late
			}
			v := float64(rng.Intn(100))
			g.record(at, v)
			again.record(at, v)
			if len(raw) > 0 {
				at = max(at, raw[len(raw)-1].T) // clamped to the newest point
			}
			raw = append(raw, metrics.Point{T: at, V: v})
			if len(g.pts) >= 2*gaugeCap {
				t.Fatalf("%s: %d points held after %d records", tc.name, len(g.pts), i+1)
			}
		}
		if g.pts[0] != raw[0] || g.pts[len(g.pts)-1] != raw[len(raw)-1] {
			t.Fatalf("%s: first/last %v %v, want %v %v", tc.name, g.pts[0], g.pts[len(g.pts)-1], raw[0], raw[len(raw)-1])
		}
		if !reflect.DeepEqual(g, again) {
			t.Fatalf("%s: two stores of one sequence differ", tc.name)
		}
		for i := 1; i < len(g.pts); i++ {
			if g.pts[i].T < g.pts[i-1].T {
				t.Fatalf("%s: point %d at %d after %d", tc.name, i, g.pts[i].T, g.pts[i-1].T)
			}
		}
		for _, n := range []int{512, chromeGaugePoints} {
			got, want := metrics.Downsample(g.pts, n), metrics.Downsample(raw, n)
			if exact := g.width <= 1 && len(g.pts) > n || g.width == 0; exact && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: downsample(%d) of the store (width %d, %d points) differs from the raw points'",
					tc.name, n, g.width, len(g.pts))
			}
			if len(got) > n+1 {
				t.Fatalf("%s: downsample(%d) returned %d points", tc.name, n, len(got))
			}
		}
		t.Logf("%s: %d raw points held as %d at width %d µs", tc.name, tc.n, len(g.pts), g.width)
	}
}
