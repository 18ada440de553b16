package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sanitize"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runTracedSmall executes the acceptance-test run: MailServer × secSSD at
// the small scale, which exercises every Evanesco NAND command (pLocks
// from overwrites/deletes, bLocks from fully-stale GC victims, erases
// from block reuse).
func runTracedSmall(t *testing.T) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder(trace.RecorderConfig{
		Chips:    Channels * ChipsPerChannel,
		Channels: Channels,
	})
	closeSpill, err := rec.SpillToFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSpill() })
	if _, err := ExecuteTraced(workload.MailServer(), sanitize.SecSSD(), 1.0, SmallScale(), rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// chromeEvent mirrors one trace_event entry for decoding.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestTracedRunChromeExport is the tentpole acceptance test: a traced
// benchmark run must emit a well-formed Chrome trace-event file with
// monotone per-track event times and all five NAND op classes present.
func TestTracedRunChromeExport(t *testing.T) {
	rec := runTracedSmall(t)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace is not well-formed JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	classes := map[string]int{}
	lastPerTrack := map[[2]int]int64{}
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M", "C":
			continue
		case "X":
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Dur < 0 {
			t.Fatalf("negative duration on %s at ts=%d", ev.Name, ev.Ts)
		}
		classes[ev.Name]++
		track := [2]int{ev.Pid, ev.Tid}
		if last, ok := lastPerTrack[track]; ok && ev.Ts < last {
			t.Fatalf("track %v: ts %d after %d (non-monotone)", track, ev.Ts, last)
		}
		lastPerTrack[track] = ev.Ts
	}
	for _, class := range []string{"read", "program", "erase", "pLock", "bLock"} {
		if classes[class] == 0 {
			t.Errorf("NAND op class %q absent from trace (saw %v)", class, classes)
		}
	}
}

// TestTracedRunTelemetry sanity-checks the live telemetry the same run
// produces: closed T_insecure windows, populated gauges, and busy-time
// utilization within [0, 1].
func TestTracedRunTelemetry(t *testing.T) {
	rec := runTracedSmall(t)

	if rec.TInsecure().N() == 0 {
		t.Fatal("no T_insecure windows recorded")
	}
	if open := rec.OpenInsecure(); open != 0 {
		t.Errorf("%d secured pages still invalidated but unlocked at end of run", open)
	}
	if rec.TInsecure().Min() < 0 {
		t.Errorf("negative T_insecure window: %v", rec.TInsecure().Min())
	}
	for _, u := range rec.ChipUtilization() {
		if u <= 0 || u > 1 {
			t.Errorf("chip utilization %v outside (0, 1]", u)
		}
	}
	for _, u := range rec.ChannelUtilization() {
		if u <= 0 || u > 1 {
			t.Errorf("channel utilization %v outside (0, 1]", u)
		}
	}
	sn := rec.Snapshot()
	for _, kind := range []trace.GaugeKind{
		trace.GaugeFreeBlocks, trace.GaugeLockQueue, trace.GaugeValidPages,
		trace.GaugeSecuredPages, trace.GaugeInvalidPages,
	} {
		if len(sn.Gauges[kind.String()]) == 0 {
			t.Errorf("gauge %v never recorded", kind)
		}
	}

	if sn.Ops["pLock"].Count == 0 || sn.Ops["bLock"].Count == 0 {
		t.Errorf("snapshot missing lock ops: %v", sn.Ops)
	}
	// Every lock's latency must match the §7 command timings.
	if got := sn.Ops["pLock"].MeanUs; got != 100 {
		t.Errorf("pLock mean latency = %v µs, want 100", got)
	}
	if got := sn.Ops["bLock"].MeanUs; got != 300 {
		t.Errorf("bLock mean latency = %v µs, want 300", got)
	}
}

// TestExecuteMatchesExecuteTraced guards the zero-cost contract: running
// with a recorder attached must not change the simulation's results.
func TestExecuteMatchesExecuteTraced(t *testing.T) {
	sc := SmallScale()
	sc.StudyPages = 2000
	plain, err := Execute(workload.MailServer(), sanitize.SecSSD(), 1.0, sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.RecorderConfig{Chips: Channels * ChipsPerChannel, Channels: Channels})
	traced, err := ExecuteTraced(workload.MailServer(), sanitize.SecSSD(), 1.0, sc, rec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report.Stats != traced.Report.Stats {
		t.Fatalf("tracing changed the simulation:\nplain:  %+v\ntraced: %+v",
			plain.Report.Stats, traced.Report.Stats)
	}
	if plain.Report.IOPS != traced.Report.IOPS {
		t.Fatalf("tracing changed IOPS: %v vs %v", plain.Report.IOPS, traced.Report.IOPS)
	}
}

// TestTracedRunClosesStreamOnFailure makes the run fail (a cell without
// a sanitization policy cannot build its device) after the stream was
// opened, and checks that the stream was still closed: its file holds
// exactly the final point, which the buffered writer only wrote out on
// the close.
func TestTracedRunClosesStreamOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.stream.jsonl")
	files := TracedFiles{Stream: path, StreamInterval: 1000}
	if _, err := TracedRun(workload.MailServer(), nil, SmallScale(), files, io.Discard); err == nil {
		t.Fatal("a cell without a policy did not fail the run")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("stream holds %d lines, want exactly the final point:\n%s", len(lines), data)
	}
	var p trace.StreamPoint
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil {
		t.Fatalf("final point does not decode: %v", err)
	}
	if p != (trace.StreamPoint{}) {
		t.Fatalf("final point = %+v, want the empty run's point at horizon 0", p)
	}
}

// TestTracedRunExportsEveryEvent: an event export gets every event the
// log line counts, through a spill file next to it, and the spill is
// gone when the run returns, on success and on failure.
func TestTracedRunExportsEveryEvent(t *testing.T) {
	dir := t.TempDir()
	files := TracedFiles{JSONL: filepath.Join(dir, "run.jsonl")}
	var log bytes.Buffer
	if _, err := TracedRun(workload.MailServer(), sanitize.SecSSD(), SmallScale(), files, &log); err != nil {
		t.Fatal(err)
	}
	var events, dropped int
	if _, err := fmt.Sscanf(log.String()[strings.Index(log.String(), "requests, ")+len("requests, "):],
		"%d events (%d dropped)", &events, &dropped); err != nil {
		t.Fatalf("log %q: %v", log.String(), err)
	}
	data, err := os.ReadFile(files.JSONL)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != events || dropped != 0 || events == 0 {
		t.Fatalf("JSONL has %d lines; the log says %d events, %d dropped", lines, events, dropped)
	}
	if _, err := TracedRun(workload.MailServer(), nil, SmallScale(), files, io.Discard); err == nil {
		t.Fatal("a cell without a policy did not fail the run")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.jsonl" {
		t.Fatalf("export directory holds %v, want only run.jsonl", entries)
	}
}
