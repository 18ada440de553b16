package metrics

// LogChunk is the number of elements in one chunk of a Log.
const LogChunk = 512

// Log is an append-only sequence stored in fixed-size chunks. A growing
// slice re-copies everything it holds each time it outgrows its backing
// array; a Log allocates one more chunk and never moves an element, so
// appending n elements costs n/LogChunk allocations, no copying, and a
// pointer returned by At stays valid. The zero value is an empty Log.
type Log[T any] struct {
	chunks [][]T // every chunk has capacity LogChunk; all but the last are full
	n      int
}

// Append adds v at index Len().
func (l *Log[T]) Append(v T) {
	if l.n&(LogChunk-1) == 0 {
		l.chunks = append(l.chunks, make([]T, 0, LogChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], v)
	l.n++
}

// Len returns the number of elements appended.
func (l *Log[T]) Len() int { return l.n }

// At returns the i-th element in place; it panics when i is out of range.
func (l *Log[T]) At(i int) *T { return &l.chunks[i/LogChunk][i%LogChunk] }
