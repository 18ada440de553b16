package trace

import (
	"testing"

	"repro/internal/audit"
)

// familySeries returns the series of the named family by label value.
func familySeries(t *testing.T, set metricSet, name string) map[string]series {
	t.Helper()
	for i := range set.fams {
		if f := &set.fams[i]; f.name == name {
			out := map[string]series{}
			for _, s := range set.series(f) {
				out[s.label] = s
			}
			return out
		}
	}
	t.Fatalf("no family %s", name)
	return nil
}

// TestMetricSet checks the metric set against a scripted run: only
// observed op classes appear, the per-class queue wait is its sum, and
// building the set mid-run leaves the tallies accumulating.
func TestMetricSet(t *testing.T) {
	r := goldenRecorder()
	r.Gauge(GaugeLockQueue, 50, 4)
	r.Audit(invalidate(1, true, 100))
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 1, Src: audit.NoSrc, LPA: -1, Dep: 400, At: 400})

	set := r.families(metricSet{})
	for name, want := range map[string]float64{
		"secssd_events_total": 3, "secssd_dropped_events_total": 0, "secssd_horizon_us": 820,
	} {
		if got := familySeries(t, set, name)[""].v; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if ops := familySeries(t, set, "secssd_ops_total"); len(ops) != 3 || ops["read"].v != 1 {
		t.Fatalf("ops = %v, want read, host_write and bLock once each", ops)
	}
	if read := familySeries(t, set, "secssd_op_latency_us")["read"]; read.v != 80 || read.n != 1 {
		t.Errorf("read latency sum/count = %v/%d, want 80/1", read.v, read.n)
	}
	if got := familySeries(t, set, "secssd_op_wait_us_total")["read"].v; got != 10 {
		t.Errorf("read wait = %v, want 10", got)
	}
	if ti := familySeries(t, set, "secssd_t_insecure_us")[""]; ti.n != 1 || ti.v != 300 {
		t.Errorf("T_insecure sum/count = %v/%d, want one 300µs window", ti.v, ti.n)
	}
	if got := familySeries(t, set, "secssd_gauge")["lock_queue"].v; got != 4 {
		t.Errorf("lock_queue gauge = %v, want 4", got)
	}
	if chips, chans := familySeries(t, set, "secssd_chip_busy_us_total"), familySeries(t, set, "secssd_channel_busy_us_total"); len(chips) != 2 || len(chans) != 1 {
		t.Errorf("busy series = %d chips / %d channels, want 2/1", len(chips), len(chans))
	}

	// Building the set must not disturb the live tally: later ops still
	// count, and the set's storage is reused.
	r.Op(Event{Class: OpRead, Start: 900, End: 905, Chip: 0})
	set = r.families(set)
	if read := familySeries(t, set, "secssd_op_latency_us")["read"]; read.v != 85 || read.n != 2 {
		t.Errorf("read latency after a second op = %v/%d, want 85/2", read.v, read.n)
	}
}
