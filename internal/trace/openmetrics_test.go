package trace

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/audit"
)

// loadedRecorder builds a Recorder carrying every telemetry surface the
// OpenMetrics export covers: ops, gauges and a closed audit window.
func loadedRecorder() *Recorder {
	r := NewRecorder(RecorderConfig{Chips: 2, Channels: 1})
	r.Op(Event{Class: OpRead, Start: 0, End: 80, Queued: 0, Chip: 0, Channel: 0})
	r.Op(Event{Class: OpProgram, Start: 80, End: 780, Queued: 80, Chip: 1, Channel: 0})
	r.Op(Event{Class: OpXfer, Start: 0, End: 40, Chip: 0, Channel: 0})
	r.Gauge(GaugeFreeBlocks, 100, 12)
	r.Gauge(GaugeFreeBlocks, 700, 11)
	r.Audit(audit.Event{Kind: audit.KindCopy, Secured: true, Page: 7, Src: audit.NoSrc, LPA: 3,
		Origin: audit.OriginHost, At: 10})
	r.Audit(audit.Event{Kind: audit.KindInvalidate, Secured: true, Page: 7, Src: audit.NoSrc, LPA: -1, At: 100})
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 7, Src: audit.NoSrc, LPA: -1,
		Cause: audit.CausePLock, Dep: 130, At: 400})
	return r
}

// TestOpenMetricsFormat validates the exposition line by line: every
// sample belongs to a declared family, values parse, histogram buckets
// are cumulative with ordered le boundaries, and the output terminates
// with the required # EOF marker.
func TestOpenMetricsFormat(t *testing.T) {
	r := loadedRecorder()
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing # EOF terminator; tail: %q", out[max(0, len(out)-60):])
	}

	declared := map[string]string{} // family -> type
	var curFamily string
	sawEOF := false
	for ln, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if sawEOF {
			t.Fatalf("line %d after # EOF: %q", ln+1, line)
		}
		if strings.HasPrefix(line, "# HELP ") {
			curFamily = strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || fields[0] != curFamily {
				t.Fatalf("line %d: TYPE not paired with HELP: %q", ln+1, line)
			}
			declared[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		// Sample line: name{labels} value
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(name, suf); fam != name && declared[fam] != "" {
				base = fam
				break
			}
		}
		if declared[base] == "" {
			t.Fatalf("line %d: sample %q has no declared family", ln+1, line)
		}
		value := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("line %d: unparseable value %q", ln+1, value)
		}
	}
	for _, fam := range []string{
		"secssd_horizon_us", "secssd_ops_total", "secssd_op_latency_us",
		"secssd_op_wait_us_total", "secssd_t_insecure_us",
		"secssd_audit_copies_total", "secssd_audit_destroys_total",
		"secssd_audit_phase_us_total",
	} {
		if declared[fam] == "" {
			t.Errorf("family %s absent", fam)
		}
	}

	// Histogram buckets: le boundaries strictly increasing, counts
	// non-decreasing, +Inf bucket equal to _count.
	var prevLe, prevCum float64
	var infCount, count string
	first := true
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "secssd_op_latency_us_bucket{op=\"read\"") {
			leStr := line[strings.Index(line, `le="`)+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			cum, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if leStr == "+Inf" {
				infCount = line[strings.LastIndexByte(line, ' ')+1:]
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q", leStr)
			}
			if !first && (le <= prevLe || cum < prevCum) {
				t.Fatalf("buckets not ordered/cumulative at le=%v", le)
			}
			prevLe, prevCum, first = le, cum, false
		}
		if strings.HasPrefix(line, "secssd_op_latency_us_count{op=\"read\"}") {
			count = line[strings.LastIndexByte(line, ' ')+1:]
		}
	}
	if infCount == "" || infCount != count {
		t.Fatalf("+Inf bucket %q != _count %q", infCount, count)
	}
}

// TestOpenMetricsDeterministic guards the worker-invariance contract at
// the export layer: two exports of the same recorder are byte-identical.
func TestOpenMetricsDeterministic(t *testing.T) {
	r := loadedRecorder()
	var a, b bytes.Buffer
	if err := r.WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated exports differ")
	}
}

// TestOpenMetricsAuditValues spot-checks the audit families against the
// ledger's known state.
func TestOpenMetricsAuditValues(t *testing.T) {
	r := loadedRecorder()
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`secssd_audit_copies_total{origin="host"} 1`,
		`secssd_audit_destroys_total{cause="plock"} 1`,
		`secssd_audit_windows_total 1`,
		`secssd_audit_phase_us_total{phase="queue_wait"} 30`,
		`secssd_audit_phase_us_total{phase="pulse"} 270`,
		`secssd_t_insecure_open 0`,
		`secssd_chip_busy_us_total{chip="1"} 700`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("export missing line %q", want)
		}
	}
}
