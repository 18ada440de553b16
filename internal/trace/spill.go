package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
)

// Spill is where a Recorder keeps its event log for the event exports:
// the events are appended to it packed, in emission order, and read back
// by WriteJSONL and WriteChromeTrace. WriteChromeTrace also appends its
// sorted runs to it. An *os.File opened for reading and writing is one.
type Spill interface {
	io.Writer
	io.ReaderAt
}

// spillFlush is how many packed bytes a Recorder buffers before writing
// them to its spill.
const spillFlush = 64 << 10

// maxPackedEvent bounds one packed event: a class byte and nine varints.
const maxPackedEvent = 1 + 9*binary.MaxVarintLen64

// spillState is a Recorder's spill and its write cursor.
type spillState struct {
	s   Spill
	buf []byte // packed events not yet written
	// bufEvents is how many events buf holds; prev is the last event
	// packed, the base of the next one's deltas.
	bufEvents int
	prev      Event
	off       int64     // bytes written to s
	log       []segment // where the event log lies in s
	err       error     // the first failed write; later events are dropped
}

// segment is a byte range of the spill. The event log is one segment
// unless events arrive after an export appended its sorted runs.
type segment struct{ off, n int64 }

// SpillTo makes the Recorder keep its events, packed in emission order,
// in s for WriteJSONL and WriteChromeTrace. Without a spill a Recorder
// only counts events, and the event exports fail once any was recorded.
// Call it before the first Op; a later call starts a new log.
func (r *Recorder) SpillTo(s Spill) {
	r.spill = &spillState{s: s, buf: make([]byte, 0, spillFlush+maxPackedEvent)}
}

// SpillToFile keeps the events in a new temporary file in dir (the
// system's temporary directory when dir is empty); see SpillTo. The
// returned func closes and removes the file.
func (r *Recorder) SpillToFile(dir string) (func() error, error) {
	f, err := os.CreateTemp(dir, "trace-spill-*")
	if err != nil {
		return nil, err
	}
	r.SpillTo(f)
	return func() error {
		cerr := f.Close()
		if err := os.Remove(f.Name()); err != nil {
			return err
		}
		return cerr
	}, nil
}

// spillEvent packs ev into the write buffer, flushing it when full.
func (r *Recorder) spillEvent(ev *Event) {
	sp := r.spill
	if sp.err != nil {
		r.dropped++
		return
	}
	sp.buf = appendEvent(sp.buf, ev, &sp.prev)
	sp.prev = *ev
	sp.bufEvents++
	if len(sp.buf) >= spillFlush {
		r.flushSpill()
	}
}

// flushSpill writes the buffered events to the spill. On a failed write
// the buffered events count as dropped and so does every later one.
func (r *Recorder) flushSpill() {
	sp := r.spill
	if len(sp.buf) == 0 || sp.err != nil {
		return
	}
	at := sp.off
	if err := sp.write(sp.buf); err != nil {
		r.dropped += uint64(sp.bufEvents)
	} else if k := len(sp.log) - 1; k >= 0 && sp.log[k].off+sp.log[k].n == at {
		sp.log[k].n += int64(len(sp.buf))
	} else {
		sp.log = append(sp.log, segment{at, int64(len(sp.buf))})
	}
	sp.buf, sp.bufEvents = sp.buf[:0], 0
}

// write appends p to the spill; the first failure sticks.
func (sp *spillState) write(p []byte) error {
	n, err := sp.s.Write(p)
	sp.off += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		sp.err = fmt.Errorf("trace: spilling events: %w", err)
	}
	return sp.err
}

var errNoSpill = errors.New("trace: events were counted but not kept (no spill)")

// logReader returns the event log in emission order, after flushing what
// is buffered. It fails if a spill write lost events, or if events were
// recorded with no spill to keep them.
func (r *Recorder) logReader() (*eventReader, error) {
	sp := r.spill
	if sp == nil {
		if r.TotalEvents() > 0 {
			return nil, errNoSpill
		}
		return newEventReader(io.MultiReader(), 0), nil
	}
	r.flushSpill()
	if sp.err != nil {
		return nil, sp.err
	}
	parts := make([]io.Reader, len(sp.log))
	var n int64
	for i, seg := range sp.log {
		parts[i] = io.NewSectionReader(sp.s, seg.off, seg.n)
		n += seg.n
	}
	return newEventReader(io.MultiReader(parts...), int(min(n, 1<<16))), nil
}

// appendEvent packs ev after prev: the class, then zigzag varints of the
// start's delta from prev's, the duration, the queueing delay and the
// coordinates. An event of a chip command takes 13–16 bytes.
func appendEvent(b []byte, ev, prev *Event) []byte {
	b = append(b, byte(ev.Class))
	b = binary.AppendVarint(b, int64(ev.Start-prev.Start))
	b = binary.AppendVarint(b, int64(ev.End-ev.Start))
	b = binary.AppendVarint(b, int64(ev.Start-ev.Queued))
	b = binary.AppendVarint(b, ev.LPA)
	b = binary.AppendVarint(b, int64(ev.Block))
	b = binary.AppendVarint(b, int64(ev.Page))
	b = binary.AppendVarint(b, int64(ev.Pages))
	b = binary.AppendVarint(b, int64(ev.Chip))
	return binary.AppendVarint(b, int64(ev.Channel))
}

// eventReader unpacks a stream written by appendEvent.
type eventReader struct {
	br   *bufio.Reader
	prev Event
}

// newEventReader reads a packed stream through a buffer of about size
// bytes.
func newEventReader(r io.Reader, size int) *eventReader {
	return &eventReader{br: bufio.NewReaderSize(r, max(size, maxPackedEvent))}
}

// next unpacks the next event into ev. It returns io.EOF at a clean end
// of the stream and io.ErrUnexpectedEOF inside an event.
func (d *eventReader) next(ev *Event) error {
	b, err := d.br.Peek(maxPackedEvent)
	if err != nil && err != io.EOF {
		return err
	}
	if len(b) == 0 {
		return io.EOF
	}
	var f [9]int64
	i := 1
	for k := range f {
		v, n := binary.Varint(b[i:])
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		f[k], i = v, i+n
	}
	d.br.Discard(i)
	start := d.prev.Start + sim.Micros(f[0])
	*ev = Event{
		Class:   OpClass(b[0]),
		Start:   start,
		End:     start + sim.Micros(f[1]),
		Queued:  start - sim.Micros(f[2]),
		LPA:     f[3],
		Block:   int32(f[4]),
		Page:    int32(f[5]),
		Pages:   int32(f[6]),
		Chip:    int16(f[7]),
		Channel: int8(f[8]),
	}
	d.prev = *ev
	return nil
}
