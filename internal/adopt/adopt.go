// Package adopt is the one way a constructor takes over a retired
// instance's storage. The Fig. 14 grids build the same device once per
// cell; handing a finished cell's arrays to the next cell's constructor
// saves re-allocating (and the runtime re-zeroing) them, but a recycled
// array is residual data by definition. So nothing is ever "reset": each
// layer's constructor has one body, every large array in it comes from
// Zeroed, and every other field is set by the statements a build
// without a donor runs — the donor contributes capacity and nothing
// else.
package adopt

// Zeroed returns a slice of n zero values. It reuses old's array when
// that holds at least n elements and allocates otherwise (so a nil old
// is a plain make). The whole of a reused array is cleared, not just
// its first n elements: no value of the donor survives anywhere in the
// storage the result can reach.
func Zeroed[T any](old []T, n int) []T {
	if cap(old) < n {
		return make([]T, n)
	}
	old = old[:cap(old)]
	clear(old)
	return old[:n]
}

// ZeroedEach adopts a list of buffers (a free list, an arena's chunks):
// the list keeps its length, every buffer in it becomes Zeroed(buf, n),
// and buffers left behind in the list's spare capacity are dropped. A nil
// list stays nil.
func ZeroedEach[T any](old [][]T, n int) [][]T {
	for i, buf := range old {
		old[i] = Zeroed(buf, n)
	}
	clear(old[len(old):cap(old)])
	return old
}
