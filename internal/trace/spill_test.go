package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// memSpill is an in-memory Spill.
type memSpill struct{ b []byte }

func (m *memSpill) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memSpill) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// failingSpill accepts limit bytes, then writes what fits of the next
// write and fails it and every later one.
type failingSpill struct {
	memSpill
	limit int
}

var errSpillFull = errors.New("spill full")

func (f *failingSpill) Write(p []byte) (int, error) {
	if room := f.limit - len(f.b); room < len(p) {
		f.memSpill.Write(p[:max(room, 0)])
		return max(room, 0), errSpillFull
	}
	return f.memSpill.Write(p)
}

// synth generates events shaped like a device's: chip and bus commands
// at a clock that often stands still (ties across tracks), zero-width
// fault markers, coordinates out of range, and host requests logged when
// they complete, up to 2 s of simulated time after they started.
type synth struct {
	rng *rand.Rand
	now sim.Micros
}

func newSynth(seed int64) *synth {
	return &synth{rng: rand.New(rand.NewSource(seed)), now: 2_000_000}
}

func (s *synth) next() Event {
	rng := s.rng
	s.now += sim.Micros(rng.Intn(3))
	chip := int16(rng.Intn(8))
	ev := Event{Start: s.now, Queued: s.now, Chip: chip, Channel: int8(chip / 4),
		Block: -1, Page: -1, LPA: -1}
	switch k := rng.Intn(20); {
	case k < 3: // host request, logged late
		ev.Class = OpHostRead + OpClass(rng.Intn(3))
		ev.Start -= sim.Micros(rng.Intn(2000) * 1000)
		ev.Queued = ev.Start - sim.Micros(rng.Intn(2)*5)
		ev.End = s.now
		ev.Chip, ev.Channel = -1, -1
		ev.LPA, ev.Pages = rng.Int63n(1<<22), int32(1+rng.Intn(16))
	case k < 5:
		ev.Class, ev.End = OpXfer, s.now+40
	case k == 5:
		ev.Class, ev.End, ev.Block = OpGC, s.now+3500, int32(rng.Intn(4096))
	case k == 6:
		ev.Class, ev.End, ev.Block, ev.Page = OpProgramFail, s.now, int32(rng.Intn(4096)), int32(rng.Intn(256))
	case k == 7:
		ev.Class, ev.End = OpReadRetry, s.now+80
	default:
		ev.Class = []OpClass{OpRead, OpProgram, OpErase, OpPLock, OpBLock}[rng.Intn(5)]
		ev.End = s.now + []sim.Micros{80, 700, 3500, 100, 300}[ev.Class]
		ev.Queued -= sim.Micros(rng.Intn(3) * 10)
		ev.Block, ev.Page = int32(rng.Intn(4096)), int32(rng.Intn(256))
	}
	return ev
}

// refChromeEvent and refChromeTrace are WriteChromeTrace as it was
// before it streamed: every entry built as a value, the complete events
// sorted with one stable sort, the file written by encoding/json.
type refChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func refChromeTrace(r *Recorder, events []Event) []byte {
	var evs []refChromeEvent
	meta := func(pid, tid int, kind, name string) {
		evs = append(evs, refChromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	meta(chromePidHost, 0, "process_name", "host")
	meta(chromePidFTL, 0, "process_name", "ftl")
	for c := 0; c < r.cfg.Channels; c++ {
		meta(chromePidChan+c, 0, "process_name", fmt.Sprintf("channel %d", c))
		meta(chromePidChan+c, 0, "thread_name", "bus")
	}
	chipsPerChan := 1
	if r.cfg.Channels > 0 && r.cfg.Chips > 0 {
		chipsPerChan = r.cfg.Chips / r.cfg.Channels
	}
	for chip := 0; chip < r.cfg.Chips; chip++ {
		meta(chromePidChan+chip/chipsPerChan, 1+chip, "thread_name", fmt.Sprintf("chip %d", chip))
		meta(chromePidFTL, chip, "thread_name", fmt.Sprintf("gc chip %d", chip))
	}
	var body []refChromeEvent
	for i := range events {
		ev := &events[i]
		pid, tid := chromeTrack(ev)
		ce := refChromeEvent{Name: ev.Class.String(), Cat: chromeCat(ev), Ph: "X",
			Ts: int64(ev.Start), Dur: int64(ev.Dur()), Pid: pid, Tid: tid}
		args := map[string]any{}
		if ev.Block >= 0 {
			args["block"] = ev.Block
		}
		if ev.Page >= 0 {
			args["page"] = ev.Page
		}
		if ev.LPA >= 0 {
			args["lpa"] = ev.LPA
		}
		if ev.Pages > 0 {
			args["pages"] = ev.Pages
		}
		if ev.Queued < ev.Start {
			args["wait_us"] = int64(ev.Start - ev.Queued)
		}
		if len(args) > 0 {
			ce.Args = args
		}
		body = append(body, ce)
	}
	sort.SliceStable(body, func(i, j int) bool { return body[i].Ts < body[j].Ts })
	evs = append(evs, body...)
	for k := range r.gauges {
		for _, p := range metrics.Downsample(r.gauges[k].pts, chromeGaugePoints) {
			evs = append(evs, refChromeEvent{Name: GaugeKind(k).String(), Cat: "gauge", Ph: "C",
				Ts: p.T, Pid: chromePidFTL, Args: map[string]any{"value": p.V}})
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		TraceEvents     []refChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}{evs, "ms"}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// refJSONL is WriteJSONL as it was before it streamed: encoding/json
// over the wire struct.
func refJSONL(events []Event) []byte {
	type jsonlEvent struct {
		Op      string `json:"op"`
		StartUs int64  `json:"start_us"`
		EndUs   int64  `json:"end_us"`
		QueueUs int64  `json:"queued_us"`
		Chip    int16  `json:"chip"`
		Channel int8   `json:"channel"`
		Block   int32  `json:"block"`
		Page    int32  `json:"page"`
		LPA     int64  `json:"lpa"`
		Pages   int32  `json:"pages"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(jsonlEvent{ev.Class.String(), int64(ev.Start), int64(ev.End), int64(ev.Queued),
			ev.Chip, ev.Channel, ev.Block, ev.Page, ev.LPA, ev.Pages}); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// TestStreamedExportsMatchReference: the streamed exports equal the
// in-memory reference byte for byte, whatever the sort chunk, with
// gauges whose values need every float form encoding/json writes.
func TestStreamedExportsMatchReference(t *testing.T) {
	const n = 5000
	r := NewRecorder(RecorderConfig{Chips: 8, Channels: 2})
	r.SpillTo(&memSpill{})
	gen := newSynth(3)
	events := make([]Event, n)
	for i := range events {
		events[i] = gen.next()
		r.Op(events[i])
	}
	for i, v := range []float64{0, 12, -3, 1.0 / 3, 2.5e-7, 1e21, 123456789, -1e-9} {
		r.Gauge(GaugeFreeBlocks, sim.Micros(i*100), v)
		r.Gauge(GaugeLockQueue, 50, float64(i))
	}
	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl.Bytes(), refJSONL(events)) {
		t.Fatal("streamed JSONL differs from the encoding/json reference")
	}
	want := refChromeTrace(r, events)
	for _, chunk := range []int{1, 2, 7, n + 1, chromeSortChunk} {
		var got bytes.Buffer
		if err := r.writeChromeTrace(&got, chunk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			i := 0
			for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
				i++
			}
			t.Fatalf("chunk %d: streamed Chrome trace differs from the reference at byte %d:\n got %.120s\nwant %.120s",
				chunk, i, got.Bytes()[i:], want[i:])
		}
	}
}

// lineCounter counts the newlines written through it and samples the
// live heap every 4 MiB.
type lineCounter struct {
	lines, bytes, sampled int
	maxHeap               uint64
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	c.bytes += len(p)
	if c.bytes-c.sampled >= 4<<20 {
		c.sampled = c.bytes
		c.maxHeap = max(c.maxHeap, heapAlloc())
	}
	return len(p), nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestExportsCompleteAndBounded feeds more events than the retention
// cap the Recorder once had (2^20) through a file spill: the JSONL holds
// every one, nothing is dropped, and neither recording nor exporting
// holds the events in memory.
func TestExportsCompleteAndBounded(t *testing.T) {
	const n = 1<<20 + 10_000
	// Recording holds the spill's 64 KiB write buffer, the gauge stores
	// and the latency tallies (0.45 MB measured); an export adds one sort
	// chunk (3 MiB) and the run readers (4 MB measured). The log itself
	// is 48 MiB as Events.
	const recordBound, exportBound = 1 << 20, 6 << 20
	r := NewRecorder(RecorderConfig{Chips: 8, Channels: 2})
	closeSpill, err := r.SpillToFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer closeSpill()
	runtime.GC()
	base := heapAlloc()
	gen := newSynth(11)
	for i := 0; i < n; i++ {
		ev := gen.next()
		r.Op(ev)
		r.Gauge(GaugeFreeBlocks, ev.End, float64(i%977))
	}
	runtime.GC()
	if grew := int64(heapAlloc()) - int64(base); grew > recordBound {
		t.Errorf("recording %d events grew the heap by %d B, want at most %d", n, grew, recordBound)
	}
	var jsonl lineCounter
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if uint64(jsonl.lines) != r.TotalEvents() || r.TotalEvents() != n || r.Dropped() != 0 {
		t.Fatalf("JSONL has %d lines for %d events (%d dropped), want %d and 0", jsonl.lines, r.TotalEvents(), r.Dropped(), n)
	}
	var chrome lineCounter
	if err := r.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	for _, w := range []lineCounter{jsonl, chrome} {
		if grew := int64(w.maxHeap) - int64(base); grew > exportBound {
			t.Errorf("an export grew the heap by %d B, want at most %d", grew, exportBound)
		}
	}
}

// TestWriteChromeTraceReportsDrops: a spill whose writes start failing
// part-way loses events; Dropped counts every one the exports do not
// hold, and both exports return the first write error instead of a
// partial file.
func TestWriteChromeTraceReportsDrops(t *testing.T) {
	const n = 50_000
	spill := &failingSpill{limit: 3 * spillFlush / 2}
	r := NewRecorder(RecorderConfig{Chips: 8, Channels: 2})
	r.SpillTo(spill)
	gen := newSynth(5)
	for i := 0; i < n; i++ {
		r.Op(gen.next())
	}
	// The first flush fit; the second was cut short and lost all its
	// events, and so was every event after it.
	if len(r.spill.log) != 1 || r.spill.log[0].n >= int64(len(spill.b)) {
		t.Fatalf("log segments %v in a %d-byte spill, want one flush and a cut-short one", r.spill.log, len(spill.b))
	}
	kept := uint64(0)
	log := newEventReader(bytes.NewReader(spill.b[:r.spill.log[0].n]), 0)
	for ev := (Event{}); log.next(&ev) == nil; {
		kept++
	}
	if r.Dropped() == 0 || kept+r.Dropped() != n {
		t.Fatalf("Dropped = %d with %d events in the spill, want them to sum to %d", r.Dropped(), kept, n)
	}
	for name, export := range map[string]func(io.Writer) error{"chrome": r.WriteChromeTrace, "jsonl": r.WriteJSONL} {
		var out bytes.Buffer
		if err := export(&out); !errors.Is(err, errSpillFull) {
			t.Errorf("%s export returned %v, want the spill's write error", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s export wrote %d bytes of a partial trace", name, out.Len())
		}
	}
}
