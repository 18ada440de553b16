package metrics

// LogChunk is the number of elements in one chunk of a Log.
const LogChunk = 512

// Log is an append-only sequence stored in fixed-size chunks. A growing
// slice re-copies everything it holds each time it outgrows its backing
// array; a Log allocates one more chunk and never moves an element, so
// appending n elements costs n/LogChunk allocations, no copying, and a
// pointer returned by At stays valid. The zero value is an empty Log.
type Log[T any] struct {
	// Every chunk has capacity LogChunk. The first n/LogChunk are full, the
	// next holds the remainder, and any after that (kept by Reset) are empty.
	chunks [][]T
	n      int
}

// Append adds v at index Len().
func (l *Log[T]) Append(v T) {
	c := l.n / LogChunk
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]T, 0, LogChunk))
	}
	l.chunks[c] = append(l.chunks[c], v)
	l.n++
}

// Reset empties the log and keeps its chunks, zeroed, for the Appends
// that follow.
func (l *Log[T]) Reset() {
	for i, c := range l.chunks {
		clear(c)
		l.chunks[i] = c[:0]
	}
	l.n = 0
}

// Len returns the number of elements appended.
func (l *Log[T]) Len() int { return l.n }

// At returns the i-th element in place; it panics when i is out of range.
func (l *Log[T]) At(i int) *T { return &l.chunks[i/LogChunk][i%LogChunk] }
