package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
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

// exposition returns the recorder's OpenMetrics samples keyed by series
// (name and labels, e.g. `secssd_ops_total{op="pLock"}`).
func exposition(t *testing.T, rec *trace.Recorder) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestTracedRunTelemetry sanity-checks the live telemetry the same run
// produces, through the exposition: closed T_insecure windows, populated
// gauges, and busy time within (0, horizon] on every chip and channel.
func TestTracedRunTelemetry(t *testing.T) {
	rec := runTracedSmall(t)

	if rec.TInsecure().N() == 0 {
		t.Fatal("no T_insecure windows recorded")
	}
	if open := rec.AuditLedger().OpenCopies(); open != 0 {
		t.Errorf("%d secured pages still invalidated but unlocked at end of run", open)
	}
	if rec.TInsecure().Min() < 0 {
		t.Errorf("negative T_insecure window: %v", rec.TInsecure().Min())
	}
	om := exposition(t, rec)
	horizon := float64(rec.Horizon())
	for i := 0; i < Channels*ChipsPerChannel; i++ {
		if b := om[fmt.Sprintf(`secssd_chip_busy_us_total{chip="%d"}`, i)]; b <= 0 || b > horizon {
			t.Errorf("chip %d busy %v µs outside (0, %v]", i, b, horizon)
		}
	}
	for i := 0; i < Channels; i++ {
		if b := om[fmt.Sprintf(`secssd_channel_busy_us_total{channel="%d"}`, i)]; b <= 0 || b > horizon {
			t.Errorf("channel %d busy %v µs outside (0, %v]", i, b, horizon)
		}
	}
	for _, kind := range []trace.GaugeKind{
		trace.GaugeFreeBlocks, trace.GaugeLockQueue, trace.GaugeValidPages,
		trace.GaugeSecuredPages, trace.GaugeInvalidPages,
	} {
		if _, ok := om[fmt.Sprintf(`secssd_gauge{kind="%s"}`, kind)]; !ok {
			t.Errorf("gauge %v never recorded", kind)
		}
	}

	// Every lock's latency must match the §7 command timings.
	for op, want := range map[string]float64{"pLock": 100, "bLock": 300} {
		n := om[fmt.Sprintf(`secssd_op_latency_us_count{op="%s"}`, op)]
		if n == 0 {
			t.Errorf("no %s ops in the exposition", op)
			continue
		}
		if got := om[fmt.Sprintf(`secssd_op_latency_us_sum{op="%s"}`, op)] / n; got != want {
			t.Errorf("%s mean latency = %v µs, want %v", op, got, want)
		}
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
	var p map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil {
		t.Fatalf("final point does not decode: %v", err)
	}
	// The empty run's point at horizon 0: every value, labelled or not, is 0.
	for key, v := range p {
		vs, ok := v.(map[string]any)
		if !ok {
			vs = map[string]any{"": v}
		}
		for label, x := range vs {
			if x != 0.0 {
				t.Errorf("final point %s[%s] = %v, want 0", key, label, x)
			}
		}
	}
	if _, ok := p["t_us"]; !ok {
		t.Fatalf("final point %v has no t_us", p)
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
