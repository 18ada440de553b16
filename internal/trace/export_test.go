package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// goldenRecorder replays a small fixed event sequence.
func goldenRecorder() *Recorder {
	r := NewRecorder(RecorderConfig{Chips: 2, Channels: 1})
	r.SpillTo(&memSpill{})
	r.Op(Event{Class: OpRead, Start: 100, End: 180, Queued: 90,
		Chip: 0, Channel: 0, Block: 3, Page: 7, LPA: -1})
	r.Op(Event{Class: OpHostWrite, Start: 0, End: 820, Queued: 0,
		Chip: -1, Channel: -1, Block: -1, Page: -1, LPA: 42, Pages: 8})
	r.Op(Event{Class: OpBLock, Start: 200, End: 500, Queued: 200,
		Chip: 1, Channel: 0, Block: 9, Page: -1, LPA: -1})
	return r
}

func TestWriteJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/events.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL output diverged from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var n int
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		for _, key := range []string{"op", "start_us", "end_us", "queued_us", "chip", "channel", "block", "page", "lpa", "pages"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("line %d missing key %q", n, key)
			}
		}
		n++
	}
	if n != 3 {
		t.Fatalf("decoded %d lines, want 3", n)
	}
}

// chromeFile mirrors the trace_event JSON object format for decoding.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTraceSchema(t *testing.T) {
	r := goldenRecorder()
	r.Gauge(GaugeFreeBlocks, 100, 12)
	r.Gauge(GaugeFreeBlocks, 300, 11)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", f.DisplayTimeUnit)
	}

	var meta, complete, counters int
	var lastTs int64 = -1
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			// Complete events are globally sorted by start time, which
			// makes every per-track sequence monotone too.
			if ev.Ts < lastTs {
				t.Fatalf("X events out of order: ts %d after %d", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
		case "C":
			counters++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if counters != 2 {
		t.Fatalf("counter events = %d, want 2", counters)
	}
	if meta == 0 {
		t.Fatal("no track metadata emitted")
	}
	// The wait_us arg appears only on the event that queued.
	var sawWait bool
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Name == "read" {
			if w, ok := ev.Args["wait_us"].(float64); ok && w == 10 {
				sawWait = true
			}
		}
	}
	if !sawWait {
		t.Fatal("read event missing wait_us=10 arg")
	}
}
