package trace

import (
	"bufio"
	"cmp"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/metrics"
)

// WriteJSONL writes the events as one JSON object per line, in emission
// order, with the keys op, start_us, end_us, queued_us, chip, channel,
// block, page, lpa and pages. The key order is the golden-file contract;
// keep it stable.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	log, err := r.logReader()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var b []byte
	var ev Event
	for {
		if err := log.next(&ev); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		b = append(b[:0], `{"op":"`...)
		b = append(b, ev.Class.String()...)
		b = appendField(b, `","start_us":`, int64(ev.Start))
		b = appendField(b, `,"end_us":`, int64(ev.End))
		b = appendField(b, `,"queued_us":`, int64(ev.Queued))
		b = appendField(b, `,"chip":`, int64(ev.Chip))
		b = appendField(b, `,"channel":`, int64(ev.Channel))
		b = appendField(b, `,"block":`, int64(ev.Block))
		b = appendField(b, `,"page":`, int64(ev.Page))
		b = appendField(b, `,"lpa":`, ev.LPA)
		b = appendField(b, `,"pages":`, int64(ev.Pages))
		b = append(b, "}\n"...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendField appends a JSON key prefix and an integer value.
func appendField(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// Chrome trace_event track layout:
//
//	pid 0            "host"        — one track of request spans
//	pid 1            "ftl"         — one GC track per chip
//	pid 2+channel    "channel c"   — tid 0 the bus, tid 1+chip each chip
const (
	chromePidHost = 0
	chromePidFTL  = 1
	chromePidChan = 2
)

func chromeTrack(ev *Event) (pid, tid int) {
	switch ev.Class {
	case OpHostRead, OpHostWrite, OpHostTrim:
		return chromePidHost, 0
	case OpGC:
		return chromePidFTL, int(ev.Chip)
	case OpXfer:
		return chromePidChan + int(ev.Channel), 0
	default:
		return chromePidChan + int(ev.Channel), 1 + int(ev.Chip)
	}
}

func chromeCat(ev *Event) string {
	switch ev.Class {
	case OpHostRead, OpHostWrite, OpHostTrim:
		return "host"
	case OpGC:
		return "ftl"
	case OpXfer:
		return "bus"
	default:
		return "nand"
	}
}

// chromeGaugePoints caps the counter samples exported per gauge so huge
// runs stay loadable; the Downsample keeps first/last and bucket tails.
const chromeGaugePoints = 2000

// chromeSortChunk is how many events WriteChromeTrace sorts in memory at
// once (48 B each).
const chromeSortChunk = 1 << 16

// WriteChromeTrace writes the events in the Chrome trace_event JSON
// object format, loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing. Operations become complete ("X") events laid out per
// chip and per channel bus; gauges become counter ("C") tracks. Events
// are sorted by start time, stably, so every track's timestamps are
// monotone.
//
// The events are never all in memory: the log is sorted in chunks of
// chromeSortChunk events, each written back to the spill as a sorted
// run, and the runs are merged by (start, run) as the file is written,
// which orders the events as one stable sort of the whole log would.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return r.writeChromeTrace(w, chromeSortChunk)
}

func (r *Recorder) writeChromeTrace(w io.Writer, chunk int) error {
	runs, err := r.sortedRuns(chunk)
	if err != nil {
		return err
	}
	cw := chromeWriter{w: w, b: make([]byte, 0, chromeFlush+4<<10)}
	cw.b = append(cw.b, `{"traceEvents":[`...)

	// Track-naming metadata.
	cw.meta(chromePidHost, 0, "process_name", "host")
	cw.meta(chromePidFTL, 0, "process_name", "ftl")
	for c := 0; c < r.cfg.Channels; c++ {
		cw.meta(chromePidChan+c, 0, "process_name", fmt.Sprintf("channel %d", c))
		cw.meta(chromePidChan+c, 0, "thread_name", "bus")
	}
	chipsPerChan := 1
	if r.cfg.Channels > 0 && r.cfg.Chips > 0 {
		chipsPerChan = r.cfg.Chips / r.cfg.Channels
	}
	for chip := 0; chip < r.cfg.Chips; chip++ {
		ch := chip / chipsPerChan
		cw.meta(chromePidChan+ch, 1+chip, "thread_name", fmt.Sprintf("chip %d", chip))
		cw.meta(chromePidFTL, chip, "thread_name", fmt.Sprintf("gc chip %d", chip))
	}

	for runs.Len() > 0 {
		cur := runs.heads[0]
		cw.op(&cur.ev)
		if err := cur.next(&cur.ev); err == io.EOF {
			heap.Pop(runs)
		} else if err != nil {
			return err
		} else {
			heap.Fix(runs, 0)
		}
		if err := cw.flush(false); err != nil {
			return err
		}
	}

	for k := range r.gauges {
		for _, p := range metrics.Downsample(r.gauges[k].pts, chromeGaugePoints) {
			if err := cw.counter(GaugeKind(k).String(), p.T, p.V); err != nil {
				return err
			}
		}
	}
	cw.b = append(cw.b, `],"displayTimeUnit":"ms"}`+"\n"...)
	return cw.flush(true)
}

// sortedRuns sorts the event log in chunks of chunk events, appends each
// chunk to the spill as a sorted run and returns a heap of the runs,
// each read up to its first event.
func (r *Recorder) sortedRuns(chunk int) (*runHeap, error) {
	log, err := r.logReader()
	if err != nil {
		return nil, err
	}
	h := &runHeap{}
	if r.spill == nil {
		return h, nil
	}
	sp := r.spill
	evs := make([]Event, 0, chunk)
	var segs []segment
	for done := false; !done; {
		evs = evs[:0]
		for len(evs) < chunk {
			var ev Event
			if err := log.next(&ev); err == io.EOF {
				done = true
				break
			} else if err != nil {
				return nil, err
			}
			evs = append(evs, ev)
		}
		if len(evs) == 0 {
			break
		}
		slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.Start, b.Start) })
		seg := segment{off: sp.off}
		var prev Event
		for i := range evs {
			sp.buf = appendEvent(sp.buf, &evs[i], &prev)
			prev = evs[i]
			if len(sp.buf) >= spillFlush || i == len(evs)-1 {
				seg.n += int64(len(sp.buf))
				err := sp.write(sp.buf)
				sp.buf = sp.buf[:0]
				if err != nil {
					return nil, err
				}
			}
		}
		segs = append(segs, seg)
	}
	for i, seg := range segs {
		cur := &runCursor{
			eventReader: newEventReader(io.NewSectionReader(sp.s, seg.off, seg.n), int(min(seg.n, 16<<10))),
			run:         i,
		}
		if err := cur.next(&cur.ev); err != nil {
			return nil, err
		}
		h.heads = append(h.heads, cur)
	}
	heap.Init(h)
	return h, nil
}

// runCursor is the next unwritten event of one sorted run.
type runCursor struct {
	*eventReader
	ev  Event
	run int
}

// runHeap orders run cursors by (start, run index).
type runHeap struct{ heads []*runCursor }

func (h *runHeap) Len() int { return len(h.heads) }
func (h *runHeap) Less(i, j int) bool {
	a, b := h.heads[i], h.heads[j]
	return a.ev.Start < b.ev.Start || a.ev.Start == b.ev.Start && a.run < b.run
}
func (h *runHeap) Swap(i, j int) { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }
func (h *runHeap) Push(x any)    { h.heads = append(h.heads, x.(*runCursor)) }
func (h *runHeap) Pop() any {
	x := h.heads[len(h.heads)-1]
	h.heads = h.heads[:len(h.heads)-1]
	return x
}

// chromeWriter writes trace_event entries as encoding/json would encode
// them, without building them as values first.
type chromeWriter struct {
	w      io.Writer
	b      []byte // entries not yet written
	events int
}

// chromeFlush is how many bytes of entries a chromeWriter buffers.
const chromeFlush = 64 << 10

// begin opens one entry: the separator and the name.
func (cw *chromeWriter) begin(name string) {
	if cw.events > 0 {
		cw.b = append(cw.b, ',')
	}
	cw.events++
	cw.b = append(cw.b, `{"name":"`...)
	cw.b = append(cw.b, name...)
	cw.b = append(cw.b, '"')
}

func (cw *chromeWriter) meta(pid, tid int, kind, name string) {
	cw.begin(kind)
	cw.b = appendField(cw.b, `,"ph":"M","ts":0,"pid":`, int64(pid))
	cw.b = appendField(cw.b, `,"tid":`, int64(tid))
	cw.b = append(cw.b, `,"args":{"name":"`...)
	cw.b = append(cw.b, name...)
	cw.b = append(cw.b, `"}}`...)
}

func (cw *chromeWriter) op(ev *Event) {
	pid, tid := chromeTrack(ev)
	cw.begin(ev.Class.String())
	cw.b = append(cw.b, `,"cat":"`...)
	cw.b = append(cw.b, chromeCat(ev)...)
	cw.b = appendField(cw.b, `","ph":"X","ts":`, int64(ev.Start))
	if d := ev.Dur(); d != 0 {
		cw.b = appendField(cw.b, `,"dur":`, int64(d))
	}
	cw.b = appendField(cw.b, `,"pid":`, int64(pid))
	cw.b = appendField(cw.b, `,"tid":`, int64(tid))
	// The args keys in encoding/json's map order: sorted.
	sep := `,"args":{`
	arg := func(key string, v int64) {
		cw.b = appendField(append(append(cw.b, sep...), key...), `":`, v)
		sep = `,`
	}
	if ev.Block >= 0 {
		arg(`"block`, int64(ev.Block))
	}
	if ev.LPA >= 0 {
		arg(`"lpa`, ev.LPA)
	}
	if ev.Page >= 0 {
		arg(`"page`, int64(ev.Page))
	}
	if ev.Pages > 0 {
		arg(`"pages`, int64(ev.Pages))
	}
	if ev.Queued < ev.Start {
		arg(`"wait_us`, int64(ev.Start-ev.Queued))
	}
	if sep == `,` {
		cw.b = append(cw.b, '}')
	}
	cw.b = append(cw.b, '}')
}

func (cw *chromeWriter) counter(name string, t int64, v float64) error {
	val, err := json.Marshal(v)
	if err != nil {
		return err
	}
	cw.begin(name)
	cw.b = appendField(cw.b, `,"cat":"gauge","ph":"C","ts":`, t)
	cw.b = appendField(cw.b, `,"pid":`, chromePidFTL)
	cw.b = append(cw.b, `,"tid":0,"args":{"value":`...)
	cw.b = append(append(cw.b, val...), `}}`...)
	return cw.flush(false)
}

// flush writes the buffered entries once there are chromeFlush bytes of
// them, or always when final.
func (cw *chromeWriter) flush(final bool) error {
	if !final && len(cw.b) < chromeFlush {
		return nil
	}
	_, err := cw.w.Write(cw.b)
	cw.b = cw.b[:0]
	return err
}
