package trace

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/audit"
)

// decodeStream decodes every stream line into a map from key to value
// (a number, or an object of numbers keyed by label value).
func decodeStream(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var pts []map[string]any
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	for dec.More() {
		var p map[string]any
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
	for i, want := range [][2]float64{{1000, 1200}, {2000, 5500}, {5500, 5500}} {
		if p := pts[i]; p["t_us"] != want[0] || p["secssd_horizon_us"] != want[1] {
			t.Fatalf("point %d = %v, want t=%v horizon=%v", i, p, want[0], want[1])
		}
	}
	// Cumulative event counts must be non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i]["secssd_events_total"].(float64) < pts[i-1]["secssd_events_total"].(float64) {
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
	if open["secssd_t_insecure_open"] != 1.0 {
		t.Fatalf("open point = %v, want one open window", open)
	}
	// Oldest age is measured at the recorder's horizon (1100 - 200).
	if got := open["secssd_t_insecure_open_oldest_us"]; got != 900.0 {
		t.Fatalf("oldest open age = %v, want 900", got)
	}
	closed := pts[1]
	if closed["secssd_t_insecure_open"] != 0.0 || closed["secssd_t_insecure_us_count"] != 1.0 ||
		closed["secssd_t_insecure_us_sum"] != 1300.0 {
		t.Fatalf("closed point = %v, want one closed window of 1300µs", closed)
	}
	if closed["secssd_audit_windows_total"] != 1.0 || closed["secssd_secret_window_us_sum"] != 1300.0 {
		t.Fatalf("secret window = %v, want 1/1300", closed)
	}
	phases := closed["secssd_audit_phase_us_total"].(map[string]any)
	if got := phases["queue_wait"].(float64) + phases["pulse"].(float64); got != 1300 {
		t.Fatalf("phases = %v, want sum 1300", phases)
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

// TestStreamMatchesOpenMetrics: the stream and the exposition render one
// metric set, so every series of the final stream line equals the same
// series in the exposition written after it, and every exposition series
// outside the histograms, the buckets and the quantiles is in the line.
func TestStreamMatchesOpenMetrics(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 2, Channels: 1})
	var stream bytes.Buffer
	r.StreamTo(&stream, 100)
	r.Op(Event{Class: OpRead, Start: 10, End: 90, Queued: 0, Chip: 0, Channel: 0})
	r.Op(Event{Class: OpXfer, Start: 90, End: 130, Queued: 90, Chip: 0, Channel: 0})
	r.Op(Event{Class: OpProgram, Start: 130, End: 830, Queued: 100, Chip: 1, Channel: 0})
	r.Op(Event{Class: OpHostWrite, Start: 0, End: 900, Chip: -1, Channel: -1})
	r.Gauge(GaugeFreeBlocks, 100, 12)
	r.Gauge(GaugeLockQueue, 700, 2.5)
	r.Audit(audit.Event{Kind: audit.KindCopy, Secured: true, Page: 7, Src: audit.NoSrc, LPA: 3,
		Origin: audit.OriginHost, At: 10})
	r.Audit(audit.Event{Kind: audit.KindInvalidate, Secured: true, Page: 7, Src: audit.NoSrc, LPA: -1, At: 200})
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 7, Src: audit.NoSrc, LPA: -1,
		Cause: audit.CausePLock, Dep: 230, At: 1000})
	r.Op(Event{Class: OpPLock, Start: 900, End: 1000, Queued: 230, Chip: 0, Channel: 0})
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}

	// The exposition's series, keyed by name and label value.
	types := map[string]string{}
	want := map[string]float64{}
	for _, line := range strings.Split(om.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket") || strings.Contains(line, "quantile=") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		key := line[:i]
		if j := strings.IndexByte(key, '{'); j >= 0 {
			label := key[strings.IndexByte(key, '"')+1 : len(key)-2]
			key = key[:j] + "|" + label
		}
		if name := strings.SplitN(key, "|", 2)[0]; types[strings.TrimSuffix(name, "_sum")] == "histogram" ||
			types[strings.TrimSuffix(name, "_count")] == "histogram" {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		want[key] = v
	}

	pts := decodeStream(t, &stream)
	last := pts[len(pts)-1]
	if last["t_us"] != 1000.0 || last["secssd_horizon_us"] != 1000.0 {
		t.Fatalf("final point at t=%v horizon=%v, want 1000", last["t_us"], last["secssd_horizon_us"])
	}
	got := map[string]float64{}
	for key, v := range last {
		if key == "t_us" {
			continue
		}
		if vs, ok := v.(map[string]any); ok {
			for label, x := range vs {
				got[key+"|"+label] = x.(float64)
			}
		} else {
			got[key] = v.(float64)
		}
	}
	for key, v := range got {
		if w, ok := want[key]; !ok || w != v {
			t.Errorf("stream %s = %v; exposition %v (present %v)", key, v, w, ok)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("exposition series %s missing from the stream", key)
		}
	}
	for _, key := range []string{"secssd_op_wait_us_total|program", "secssd_t_insecure_us_sum", "secssd_gauge|lock_queue"} {
		if got[key] == 0 {
			t.Errorf("stream %s = 0, want the scripted value", key)
		}
	}
}
