package trace

import (
	"bufio"
	"io"

	"repro/internal/sim"
)

// streamState drives the periodic emitter.
type streamState struct {
	w        *bufio.Writer
	interval sim.Micros
	next     sim.Micros
	err      error
	set      metricSet // the last point's families, whose storage the next one reuses
	line     []byte
}

// StreamTo enables periodic telemetry: every interval of simulated time
// (measured on the event horizon) the Recorder writes one JSON line to
// w. The line is {"t_us": …} — the first interval boundary the run
// crossed since the previous line — followed by every counter and gauge
// family of the OpenMetrics exposition under its name, and each
// summary's _sum and _count: a number for a family without labels, an
// object keyed by label value otherwise. The latency histograms stay in
// the exposition, whose buckets and quantiles would cost a pass over
// every tally and a sort per point. Every value
// is a running total or a current level derived from the deterministic
// event stream, so the series is bit-identical across parallel worker
// counts. interval must be positive. Call CloseStream when the run
// finishes to emit the final point and flush.
func (r *Recorder) StreamTo(w io.Writer, interval sim.Micros) {
	if interval <= 0 {
		interval = 1
	}
	r.stream = &streamState{w: bufio.NewWriterSize(w, 64<<10), interval: interval, next: interval}
}

// CloseStream emits a final point at the current horizon, flushes the
// stream, and returns the first write error encountered (nil when
// streaming was never enabled).
func (r *Recorder) CloseStream() error {
	s := r.stream
	if s == nil {
		return nil
	}
	r.writeStreamPoint(r.horizon)
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	r.stream = nil
	return s.err
}

// emitStreamPoint fires when the horizon crosses the next boundary: one
// point is written for the first crossed boundary, then the cursor
// skips past the horizon so a big time jump costs one line, not one per
// interval.
func (r *Recorder) emitStreamPoint() {
	s := r.stream
	r.writeStreamPoint(s.next)
	s.next = (r.horizon/s.interval + 1) * s.interval
}

func (r *Recorder) writeStreamPoint(t sim.Micros) {
	s := r.stream
	if s.err != nil {
		return
	}
	s.set = r.families(s.set)
	b := appendField(append(s.line[:0], '{'), `"t_us":`, int64(t))
	for i := range s.set.fams {
		f := &s.set.fams[i]
		switch f.typ {
		case "histogram": // its _count is secssd_ops_total
		case "summary":
			b = appendStreamKey(b, f, "_sum", s.set.series(f), false)
			b = appendStreamKey(b, f, "_count", s.set.series(f), true)
		default:
			b = appendStreamKey(b, f, "", s.set.series(f), false)
		}
	}
	s.line = append(b, "}\n"...)
	_, s.err = s.w.Write(s.line)
}

// appendStreamKey appends one key of a stream line, the family's name
// and suffix, with its series' values (their _count when count is set).
func appendStreamKey(b []byte, f *family, suffix string, ser []series, count bool) []byte {
	b = append(append(append(b, `,"`...), f.name...), suffix...)
	b = append(b, `":`...)
	if f.label != "" {
		b = append(b, '{')
	}
	for i := range ser {
		if f.label != "" {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), ser[i].label...), `":`...)
		}
		v := ser[i].v
		if count {
			v = float64(ser[i].n)
		}
		b = appendNum(b, v)
	}
	if f.label != "" {
		b = append(b, '}')
	}
	return b
}
