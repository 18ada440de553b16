package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/audit"
	"repro/internal/metrics"
)

// jsonlEvent is the JSONL wire form of an Event. Field order is the
// golden-file contract; keep it stable.
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

// WriteJSONL writes the retained events as one JSON object per line, in
// recording order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := 0; i < r.events.Len(); i++ {
		ev := r.events.At(i)
		if err := enc.Encode(jsonlEvent{
			Op:      ev.Class.String(),
			StartUs: int64(ev.Start),
			EndUs:   int64(ev.End),
			QueueUs: int64(ev.Queued),
			Chip:    ev.Chip,
			Channel: ev.Channel,
			Block:   ev.Block,
			Page:    ev.Page,
			LPA:     ev.LPA,
			Pages:   ev.Pages,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
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

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

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

// WriteChromeTrace writes the retained events in the Chrome trace_event
// JSON object format, loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing. Operations become complete ("X") events laid out per
// chip and per channel bus; gauges become counter ("C") tracks. Events
// are sorted by start time, so every track's timestamps are monotone.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	evs := make([]chromeEvent, 0, r.events.Len()+32)

	// Track-naming metadata.
	meta := func(pid, tid int, kind, name string) {
		evs = append(evs, chromeEvent{
			Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
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
		ch := chip / chipsPerChan
		meta(chromePidChan+ch, 1+chip, "thread_name", fmt.Sprintf("chip %d", chip))
		meta(chromePidFTL, chip, "thread_name", fmt.Sprintf("gc chip %d", chip))
	}

	body := make([]chromeEvent, 0, r.events.Len())
	for i := 0; i < r.events.Len(); i++ {
		ev := r.events.At(i)
		pid, tid := chromeTrack(ev)
		ce := chromeEvent{
			Name: ev.Class.String(),
			Cat:  chromeCat(ev),
			Ph:   "X",
			Ts:   int64(ev.Start),
			Dur:  int64(ev.Dur()),
			Pid:  pid,
			Tid:  tid,
		}
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
		for _, p := range r.gauges[k].Downsample(chromeGaugePoints) {
			evs = append(evs, chromeEvent{
				Name: GaugeKind(k).String(),
				Cat:  "gauge",
				Ph:   "C",
				Ts:   p.T,
				Pid:  chromePidFTL,
				Args: map[string]any{"value": p.V},
			})
		}
	}

	out := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata,omitempty"`
	}{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
	}
	if r.dropped > 0 {
		out.Metadata = map[string]any{"dropped_events": r.dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LatencyStats summarizes one duration distribution in µs.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// latStats summarizes a Sample without mutating it: Sample.Quantile
// sorts in place, so exporters work on the Sorted() copy and leave the
// live, still-accumulating sample untouched.
func latStats(s *metrics.Sample) LatencyStats {
	xs := s.Sorted()
	st := LatencyStats{Count: uint64(len(xs))}
	if len(xs) == 0 {
		return st
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	st.MeanUs = sum / float64(len(xs))
	st.P50Us = sortedQuantile(xs, 0.5)
	st.P99Us = sortedQuantile(xs, 0.99)
	st.MaxUs = xs[len(xs)-1]
	return st
}

// sortedQuantile interpolates the q-th quantile of an ascending slice.
func sortedQuantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// OpStats is one op class's entry in the telemetry snapshot.
type OpStats struct {
	LatencyStats
	MeanWaitUs    float64 `json:"mean_wait_us"`
	HistUnderflow uint64  `json:"hist_underflow"`
	HistOverflow  uint64  `json:"hist_overflow"`
}

// GaugePoint is one (simulated-µs, value) sample of a gauge.
type GaugePoint struct {
	TUs int64   `json:"t_us"`
	V   float64 `json:"v"`
}

// Snapshot is the JSON-serializable telemetry summary of a run.
type Snapshot struct {
	HorizonUs     int64              `json:"horizon_us"`
	Events        int                `json:"events"`
	DroppedEvents uint64             `json:"dropped_events"`
	Ops           map[string]OpStats `json:"ops"`
	ChipUtil      []float64          `json:"chip_util"`
	ChanUtil      []float64          `json:"chan_util"`
	// UnattributedBusyUs / UnattributedEvents count busy time recorded
	// with out-of-range chip/channel coordinates — work that would
	// otherwise silently vanish from the utilization figures.
	UnattributedBusyUs int64        `json:"unattributed_busy_us"`
	UnattributedEvents uint64       `json:"unattributed_events"`
	TInsecure          LatencyStats `json:"t_insecure_us"`
	OpenInsecure       int          `json:"t_insecure_open"`
	// OpenOldestUs is the age (µs before the horizon) of the oldest
	// still-open T_insecure window; 0 when none is open. Open windows
	// are reported, not silently dropped.
	OpenOldestUs int64 `json:"t_insecure_open_oldest_us"`
	// SecretWindows summarizes the per-secret multi-copy windows closed
	// by the audit ledger; Audit carries the full ledger summary.
	SecretWindows LatencyStats            `json:"secret_window_us"`
	Audit         audit.Stats             `json:"audit"`
	Gauges        map[string][]GaugePoint `json:"gauges"`
}

// snapshotGaugePoints caps each gauge series in the snapshot.
const snapshotGaugePoints = 512

// Snapshot summarizes the recorder's state. It does not mutate the
// recorder, so it can be taken mid-run.
func (r *Recorder) Snapshot() Snapshot {
	aud := r.ledger.Stats(r.horizon)
	sn := Snapshot{
		HorizonUs:          int64(r.horizon),
		Events:             r.events.Len(),
		DroppedEvents:      r.dropped,
		Ops:                make(map[string]OpStats),
		ChipUtil:           r.ChipUtilization(),
		ChanUtil:           r.ChannelUtilization(),
		UnattributedBusyUs: int64(r.unattrBusy),
		UnattributedEvents: r.unattrEvents,
		TInsecure:          latStats(r.ledger.TInsec()),
		OpenInsecure:       r.ledger.OpenCopies(),
		OpenOldestUs:       aud.OldestOpenUs,
		SecretWindows:      latStats(r.ledger.Windows()),
		Audit:              aud,
		Gauges:             make(map[string][]GaugePoint),
	}
	for c := 0; c < NumOpClasses; c++ {
		if r.classCount[c] == 0 {
			continue
		}
		under, over := r.classHist[c].OutOfRange()
		sn.Ops[OpClass(c).String()] = OpStats{
			LatencyStats:  r.classLat[c].stats(),
			MeanWaitUs:    r.classWait[c].Mean(),
			HistUnderflow: under,
			HistOverflow:  over,
		}
	}
	for k := range r.gauges {
		pts := r.gauges[k].Downsample(snapshotGaugePoints)
		if len(pts) == 0 {
			continue
		}
		out := make([]GaugePoint, len(pts))
		for i, p := range pts {
			out[i] = GaugePoint{TUs: p.T, V: p.V}
		}
		sn.Gauges[GaugeKind(k).String()] = out
	}
	return sn
}

// WriteStatsJSON writes the Snapshot as indented JSON.
func (r *Recorder) WriteStatsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
