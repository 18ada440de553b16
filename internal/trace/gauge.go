package trace

import "repro/internal/metrics"

// gaugeCap sizes a gauge's store: it holds every raw point until there
// are 2*gaugeCap of them, and never more than that.
const gaugeCap = 4096

// gaugeStore is one gauge's time series, bounded by gaugeCap however long
// the run. It keeps raw points until the store fills; from then on it
// keeps fixed-width buckets of simulated time, holding the last point of
// each, and the first point of the series. Each time the store fills
// again the width doubles (starting at 1 µs, which only merges points
// with equal timestamps) and adjacent buckets merge, until at most
// gaugeCap points are left. Every bucket is aligned to a multiple of the
// width, so the store's contents are a function of the points recorded.
//
// The exports downsample the store to n points with metrics.Downsample.
// Merging equal timestamps does not change that result while more than n
// points remain, so a series that never needed a width above 1 µs
// exports exactly as its raw points would unless it merged to n or
// fewer.
type gaugeStore struct {
	pts   []metrics.Point
	width int64 // bucket width in simulated µs; 0 while the points are raw
}

// record appends one observation. Timestamps earlier than the newest
// point are clamped to it.
func (g *gaugeStore) record(t int64, v float64) {
	n := len(g.pts)
	if n > 0 && t < g.pts[n-1].T {
		t = g.pts[n-1].T
	}
	// The first point is never overwritten, so a bucket is only shared
	// with a newer point.
	if g.width > 0 && n > 1 && t/g.width == g.pts[n-1].T/g.width {
		g.pts[n-1] = metrics.Point{T: t, V: v}
		return
	}
	if g.pts == nil {
		g.pts = make([]metrics.Point, 0, 2*gaugeCap) // never regrown
	}
	g.pts = append(g.pts, metrics.Point{T: t, V: v})
	if len(g.pts) == 2*gaugeCap {
		g.compact()
	}
}

// compact doubles the bucket width until at most gaugeCap points remain,
// keeping the first point and the last point of every bucket.
func (g *gaugeStore) compact() {
	for len(g.pts) > gaugeCap {
		g.width = max(1, 2*g.width)
		keep := 1
		for i := 1; i < len(g.pts); i++ {
			if i+1 < len(g.pts) && g.pts[i].T/g.width == g.pts[i+1].T/g.width {
				continue // a later point holds this bucket
			}
			g.pts[keep] = g.pts[i]
			keep++
		}
		g.pts = g.pts[:keep]
	}
}
