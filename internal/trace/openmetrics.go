package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
)

// WriteOpenMetrics writes the Recorder's full telemetry surface —
// counters, per-class latency histograms, gauges, T_insecure summary,
// and the audit ledger — in the OpenMetrics text exposition format
// (also parseable by Prometheus). The output is deterministic: families
// appear in a fixed order, op classes in enum order, chips and channels
// by index, and audit phases/causes in their enum order, so the export
// is bit-identical for any parallel worker count.
func (r *Recorder) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)

	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	family := func(name, typ, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	family("secssd_horizon_us", "gauge", "Latest simulated completion time.")
	fmt.Fprintf(bw, "secssd_horizon_us %d\n", int64(r.horizon))
	family("secssd_events_total", "counter", "Operations observed (including dropped).")
	fmt.Fprintf(bw, "secssd_events_total %d\n", r.TotalEvents())
	family("secssd_dropped_events_total", "counter", "Events a failed spill write lost.")
	fmt.Fprintf(bw, "secssd_dropped_events_total %d\n", r.dropped)

	family("secssd_ops_total", "counter", "Operations per class.")
	for c := 0; c < NumOpClasses; c++ {
		if r.classCount[c] == 0 {
			continue
		}
		fmt.Fprintf(bw, "secssd_ops_total{op=%q} %d\n", OpClass(c).String(), r.classCount[c])
	}

	family("secssd_op_latency_us", "histogram", "Service-time distribution per op class.")
	for c := 0; c < NumOpClasses; c++ {
		if r.classCount[c] == 0 {
			continue
		}
		writeHistogram(bw, num, "secssd_op_latency_us", OpClass(c).String(), &r.classLat[c])
	}

	family("secssd_chip_busy_us_total", "counter", "Accumulated busy time per chip.")
	for i, b := range r.chipBusy {
		fmt.Fprintf(bw, "secssd_chip_busy_us_total{chip=\"%d\"} %d\n", i, int64(b))
	}
	family("secssd_channel_busy_us_total", "counter", "Accumulated busy time per channel bus.")
	for i, b := range r.chanBusy {
		fmt.Fprintf(bw, "secssd_channel_busy_us_total{channel=\"%d\"} %d\n", i, int64(b))
	}
	family("secssd_unattributed_busy_us_total", "counter",
		"Busy time recorded with out-of-range chip/channel coordinates.")
	fmt.Fprintf(bw, "secssd_unattributed_busy_us_total %d\n", int64(r.unattrBusy))
	family("secssd_unattributed_events_total", "counter",
		"Events whose busy time could not be attributed.")
	fmt.Fprintf(bw, "secssd_unattributed_events_total %d\n", r.unattrEvents)

	family("secssd_gauge", "gauge", "Last sampled value per device gauge.")
	for k := 0; k < NumGaugeKinds; k++ {
		pts := r.gauges[k].pts
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(bw, "secssd_gauge{kind=%q} %s\n", GaugeKind(k).String(), num(pts[len(pts)-1].V))
	}

	writeSummary(bw, num, "secssd_t_insecure_us",
		"Per-copy T_insecure windows (invalidation to destruction).", r.ledger.TInsec())
	writeSummary(bw, num, "secssd_secret_window_us",
		"Per-secret multi-copy insecurity windows.", r.ledger.Windows())

	st := r.ledger.Stats(r.horizon)
	family("secssd_t_insecure_open", "gauge", "Still-open T_insecure windows.")
	fmt.Fprintf(bw, "secssd_t_insecure_open %d\n", st.ExposedCopies)
	family("secssd_t_insecure_open_oldest_us", "gauge", "Age of the oldest open window.")
	fmt.Fprintf(bw, "secssd_t_insecure_open_oldest_us %d\n", st.OldestOpenUs)

	family("secssd_audit_secrets", "gauge", "Secrets tracked by the provenance ledger.")
	fmt.Fprintf(bw, "secssd_audit_secrets %d\n", st.Secrets)
	family("secssd_audit_open_secrets", "gauge", "Secrets with at least one exposed copy.")
	fmt.Fprintf(bw, "secssd_audit_open_secrets %d\n", st.OpenSecrets)
	family("secssd_audit_live_copies", "gauge", "Registered copies still holding live data.")
	fmt.Fprintf(bw, "secssd_audit_live_copies %d\n", st.LiveCopies)

	family("secssd_audit_copies_total", "counter", "Physical copies registered per origin.")
	fmt.Fprintf(bw, "secssd_audit_copies_total{origin=\"host\"} %d\n", st.Copies.Host)
	fmt.Fprintf(bw, "secssd_audit_copies_total{origin=\"gc\"} %d\n", st.Copies.GC)
	fmt.Fprintf(bw, "secssd_audit_copies_total{origin=\"evacuate\"} %d\n", st.Copies.Evacuate)
	fmt.Fprintf(bw, "secssd_audit_copies_total{origin=\"quarantine\"} %d\n", st.Copies.Quarantine)
	fmt.Fprintf(bw, "secssd_audit_copies_total{origin=\"unknown\"} %d\n", st.Copies.Unknown)

	family("secssd_audit_destroys_total", "counter", "Copies destroyed per cause.")
	fmt.Fprintf(bw, "secssd_audit_destroys_total{cause=\"unspecified\"} %d\n", st.Destroys.Unspecified)
	fmt.Fprintf(bw, "secssd_audit_destroys_total{cause=\"plock\"} %d\n", st.Destroys.PLock)
	fmt.Fprintf(bw, "secssd_audit_destroys_total{cause=\"plock_batch\"} %d\n", st.Destroys.PLockBatch)
	fmt.Fprintf(bw, "secssd_audit_destroys_total{cause=\"block\"} %d\n", st.Destroys.BLock)
	fmt.Fprintf(bw, "secssd_audit_destroys_total{cause=\"erase\"} %d\n", st.Destroys.Erase)
	fmt.Fprintf(bw, "secssd_audit_destroys_total{cause=\"scrub\"} %d\n", st.Destroys.Scrub)

	family("secssd_audit_windows_total", "counter", "Closed per-secret windows.")
	fmt.Fprintf(bw, "secssd_audit_windows_total %d\n", st.Windows)
	family("secssd_audit_reopened_windows_total", "counter", "Relocation-induced reopenings.")
	fmt.Fprintf(bw, "secssd_audit_reopened_windows_total %d\n", st.ReopenedWindows)
	family("secssd_audit_ladder_windows_total", "counter", "Windows involving a recovery-ladder rung.")
	fmt.Fprintf(bw, "secssd_audit_ladder_windows_total %d\n", st.LadderWindows)
	family("secssd_audit_ladder_destroys_total", "counter", "Copies destroyed under the recovery ladder.")
	fmt.Fprintf(bw, "secssd_audit_ladder_destroys_total %d\n", st.LadderDestroys)

	family("secssd_audit_phase_us_total", "counter", "Window time attributed per phase.")
	fmt.Fprintf(bw, "secssd_audit_phase_us_total{phase=\"queue_wait\"} %d\n", st.Phases.QueueWait)
	fmt.Fprintf(bw, "secssd_audit_phase_us_total{phase=\"batch_wait\"} %d\n", st.Phases.BatchWait)
	fmt.Fprintf(bw, "secssd_audit_phase_us_total{phase=\"reopen\"} %d\n", st.Phases.Reopen)
	fmt.Fprintf(bw, "secssd_audit_phase_us_total{phase=\"pulse\"} %d\n", st.Phases.Pulse)
	fmt.Fprintf(bw, "secssd_audit_phase_us_total{phase=\"ladder\"} %d\n", st.Phases.Ladder)

	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

// writeHistogram emits one labeled series of a histogram family, binned
// from the latency tally: cumulative le buckets (values below the range
// count into every finite bucket; values above it only into +Inf), then
// the exact _sum and _count.
func writeHistogram(w io.Writer, num func(float64) string, name, op string, lat *tally) {
	bins, cum, _ := lat.buckets()
	for i, n := range bins {
		cum += n
		fmt.Fprintf(w, "%s_bucket{op=%q,le=%q} %d\n", name, op, num(bucketUpper(i)), cum)
	}
	fmt.Fprintf(w, "%s_bucket{op=%q,le=\"+Inf\"} %d\n", name, op, lat.n)
	fmt.Fprintf(w, "%s_sum{op=%q} %s\n", name, op, num(lat.sum()))
	fmt.Fprintf(w, "%s_count{op=%q} %d\n", name, op, lat.n)
}

// writeSummary emits a summary family with p50/p99 quantiles (omitted
// when the sample is empty; _sum and _count always appear).
func writeSummary(w io.Writer, num func(float64) string, name, help string, s *metrics.Sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	xs := s.Sorted()
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if len(xs) > 0 {
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", name, num(sortedQuantile(xs, 0.5)))
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", name, num(sortedQuantile(xs, 0.99)))
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, num(sum))
	fmt.Fprintf(w, "%s_count %d\n", name, len(xs))
}
