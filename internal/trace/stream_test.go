package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/audit"
)

func decodeStream(t *testing.T, buf *bytes.Buffer) []StreamPoint {
	t.Helper()
	var pts []StreamPoint
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	for dec.More() {
		var p StreamPoint
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		pts = append(pts, p)
	}
	return pts
}

// TestStreamEmitsOnBoundaryCrossings: one point per crossed interval
// boundary, with the cursor skipping past the horizon so a long quiet
// stretch costs a single line.
func TestStreamEmitsOnBoundaryCrossings(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	var buf bytes.Buffer
	r.StreamTo(&buf, 1000)

	r.Op(Event{Class: OpRead, Start: 0, End: 500, Chip: 0})     // before first boundary
	r.Op(Event{Class: OpRead, Start: 500, End: 1200, Chip: 0})  // crosses 1000
	r.Op(Event{Class: OpRead, Start: 1200, End: 1800, Chip: 0}) // same interval: no point
	r.Op(Event{Class: OpRead, Start: 1800, End: 5500, Chip: 0}) // jumps 2000..5000: ONE point
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}

	pts := decodeStream(t, &buf)
	// Crossing at 1000, crossing at 2000 (nominal first boundary of the
	// jump), and the final point at the horizon.
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3: %+v", len(pts), pts)
	}
	if pts[0].TUs != 1000 || pts[0].HorizonUs != 1200 {
		t.Fatalf("first point = %+v, want t=1000 horizon=1200", pts[0])
	}
	if pts[1].TUs != 2000 || pts[1].HorizonUs != 5500 {
		t.Fatalf("jump point = %+v, want t=2000 horizon=5500", pts[1])
	}
	if pts[2].TUs != 5500 || pts[2].HorizonUs != 5500 {
		t.Fatalf("final point = %+v, want t=horizon=5500", pts[2])
	}
	// Cumulative event counts must be non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].Events < pts[i-1].Events {
			t.Fatalf("event count regressed: %+v", pts)
		}
	}
}

// TestStreamCarriesAuditState: open-window count, oldest age, and phase
// totals ride along on every point.
func TestStreamCarriesAuditState(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	var buf bytes.Buffer
	r.StreamTo(&buf, 1000)

	r.Audit(audit.Event{Kind: audit.KindCopy, Secured: true, Page: 1, Src: audit.NoSrc, LPA: 4,
		Origin: audit.OriginHost, At: 10})
	r.Audit(audit.Event{Kind: audit.KindInvalidate, Secured: true, Page: 1, Src: audit.NoSrc, LPA: -1, At: 200})
	r.Op(Event{Class: OpRead, Start: 900, End: 1100, Chip: 0}) // boundary: window still open
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 1, Src: audit.NoSrc, LPA: -1,
		Cause: audit.CausePLock, Dep: 230, At: 1500})
	r.Op(Event{Class: OpRead, Start: 1500, End: 2100, Chip: 0}) // boundary: window closed
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}

	pts := decodeStream(t, &buf)
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	open := pts[0]
	if open.OpenInsecure != 1 || open.ExposedCopies != 1 {
		t.Fatalf("open point = %+v, want one open window", open)
	}
	// Oldest age is measured at the recorder's horizon (1100 - 200).
	if open.OpenOldestUs != 900 {
		t.Fatalf("oldest open age = %d, want 900", open.OpenOldestUs)
	}
	closed := pts[1]
	if closed.OpenInsecure != 0 || closed.TInsecClosed != 1 || closed.TInsecSumUs != 1300 {
		t.Fatalf("closed point = %+v, want one closed window of 1300µs", closed)
	}
	if closed.Windows != 1 || closed.WindowSumUs != 1300 {
		t.Fatalf("secret window = %+v, want 1/1300", closed)
	}
	if got := closed.Phases.QueueWait + closed.Phases.Pulse; got != 1300 {
		t.Fatalf("phases = %+v, want sum 1300", closed.Phases)
	}
}

// TestStreamIntervalClamp: a non-positive interval degrades to 1µs
// rather than dividing by zero.
func TestStreamIntervalClamp(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	var buf bytes.Buffer
	r.StreamTo(&buf, 0)
	r.Op(Event{Class: OpRead, Start: 0, End: 3, Chip: 0})
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if pts := decodeStream(t, &buf); len(pts) == 0 {
		t.Fatal("no points emitted")
	}
	if r.stream != nil {
		t.Fatal("stream not detached after close")
	}
}
