package trace

import (
	"strconv"

	"repro/internal/metrics"
)

// metricSet is a traced run's telemetry as one ordered list of metric
// families. The OpenMetrics exposition and every line of the telemetry
// stream render it, so the two cannot drift apart.
type metricSet struct {
	fams []family
	ser  []series // every family's series, in family order
}

// A family is one metric: its OpenMetrics name, type and help, the name
// of its one label ("" for a family of one unlabelled series) and its
// series, ser[lo:hi] of the set.
type family struct {
	name, typ, help, label string
	lo, hi                 int
}

// A series is one label value's sample. A histogram's or a summary's
// series holds its _sum in v and its _count in n, and the distribution
// the exposition bins (lat) or takes quantiles of (xs).
type series struct {
	label string
	v     float64
	n     uint64
	lat   *tally
	xs    *metrics.Sample
}

func (m *metricSet) begin(name, typ, help, label string) {
	m.fams = append(m.fams, family{name: name, typ: typ, help: help, label: label, lo: len(m.ser), hi: len(m.ser)})
}

func (m *metricSet) add(s series) {
	m.ser = append(m.ser, s)
	m.fams[len(m.fams)-1].hi++
}

// one adds a family of one unlabelled series.
func (m *metricSet) one(name, typ, help string, v float64) {
	m.begin(name, typ, help, "")
	m.add(series{v: v})
}

// labelled adds a family with one series per label value.
func (m *metricSet) labelled(name, typ, help, label string, labels []string, vs ...int64) {
	m.begin(name, typ, help, label)
	for i, v := range vs {
		m.add(series{label: labels[i], v: float64(v)})
	}
}

// series returns the family's series.
func (m *metricSet) series(f *family) []series { return m.ser[f.lo:f.hi] }

var (
	originLabels = []string{"host", "gc", "evacuate", "quarantine", "unknown"}
	causeLabels  = []string{"unspecified", "plock", "plock_batch", "block", "erase", "scrub"}
	phaseLabels  = []string{"queue_wait", "batch_wait", "reopen", "pulse", "ladder"}
)

// families builds the recorder's telemetry, reusing buf's storage: the
// counters, latency tallies, busy time and last gauge values of the
// Recorder and the audit ledger's running totals, in a fixed order (op
// classes and gauges in enum order, chips and channels by index), so
// every rendering is deterministic. Op classes never observed are left
// out.
func (r *Recorder) families(buf metricSet) metricSet {
	m := metricSet{fams: buf.fams[:0], ser: buf.ser[:0]}
	m.one("secssd_horizon_us", "gauge", "Latest simulated completion time.", float64(r.horizon))
	m.one("secssd_events_total", "counter", "Operations observed (including dropped).", float64(r.TotalEvents()))
	m.one("secssd_dropped_events_total", "counter", "Events a failed spill write lost.", float64(r.dropped))

	perClass := func(name, typ, help string, s func(c OpClass) series) {
		m.begin(name, typ, help, "op")
		for c := OpClass(0); c < numOpClasses; c++ {
			if r.classCount[c] > 0 {
				ser := s(c)
				ser.label = c.String()
				m.add(ser)
			}
		}
	}
	perClass("secssd_ops_total", "counter", "Operations per class.", func(c OpClass) series {
		return series{v: float64(r.classCount[c])}
	})
	perClass("secssd_op_wait_us_total", "counter", "Queueing delay (issue to service start) per op class.", func(c OpClass) series {
		return series{v: float64(r.classWait[c])}
	})
	perClass("secssd_op_latency_us", "histogram", "Service-time distribution per op class.", func(c OpClass) series {
		lat := &r.classLat[c]
		return series{v: lat.sum(), n: lat.n, lat: lat}
	})

	m.begin("secssd_chip_busy_us_total", "counter", "Accumulated busy time per chip.", "chip")
	for i, b := range r.chipBusy {
		m.add(series{label: strconv.Itoa(i), v: float64(b)})
	}
	m.begin("secssd_channel_busy_us_total", "counter", "Accumulated busy time per channel bus.", "channel")
	for i, b := range r.chanBusy {
		m.add(series{label: strconv.Itoa(i), v: float64(b)})
	}

	m.begin("secssd_gauge", "gauge", "Last sampled value per device gauge.", "kind")
	for k := GaugeKind(0); k < numGaugeKinds; k++ {
		if pts := r.gauges[k].pts; len(pts) > 0 {
			m.add(series{label: k.String(), v: pts[len(pts)-1].V})
		}
	}

	l := r.ledger
	m.begin("secssd_t_insecure_us", "summary", "Per-copy T_insecure windows (invalidation to destruction).", "")
	m.add(series{v: float64(l.TInsecSum()), n: uint64(l.TInsec().N()), xs: l.TInsec()})
	st := l.Stats(r.horizon)
	m.begin("secssd_secret_window_us", "summary", "Per-secret multi-copy insecurity windows.", "")
	m.add(series{v: float64(st.WindowSumUs), n: uint64(l.Windows().N()), xs: l.Windows()})

	m.one("secssd_t_insecure_open", "gauge", "Still-open T_insecure windows.", float64(st.ExposedCopies))
	m.one("secssd_t_insecure_open_oldest_us", "gauge", "Age of the oldest open window.", float64(st.OldestOpenUs))
	m.one("secssd_audit_secrets", "gauge", "Secrets tracked by the provenance ledger.", float64(st.Secrets))
	m.one("secssd_audit_open_secrets", "gauge", "Secrets with at least one exposed copy.", float64(st.OpenSecrets))
	m.one("secssd_audit_live_copies", "gauge", "Registered copies still holding live data.", float64(st.LiveCopies))

	c, d, p := st.Copies, st.Destroys, st.Phases
	m.labelled("secssd_audit_copies_total", "counter", "Physical copies registered per origin.", "origin", originLabels,
		int64(c.Host), int64(c.GC), int64(c.Evacuate), int64(c.Quarantine), int64(c.Unknown))
	m.labelled("secssd_audit_destroys_total", "counter", "Copies destroyed per cause.", "cause", causeLabels,
		int64(d.Unspecified), int64(d.PLock), int64(d.PLockBatch), int64(d.BLock), int64(d.Erase), int64(d.Scrub))
	m.one("secssd_audit_windows_total", "counter", "Closed per-secret windows.", float64(st.Windows))
	m.one("secssd_audit_reopened_windows_total", "counter", "Relocation-induced reopenings.", float64(st.ReopenedWindows))
	m.one("secssd_audit_ladder_windows_total", "counter", "Windows involving a recovery-ladder rung.", float64(st.LadderWindows))
	m.one("secssd_audit_ladder_destroys_total", "counter", "Copies destroyed under the recovery ladder.", float64(st.LadderDestroys))
	m.labelled("secssd_audit_phase_us_total", "counter", "Window time attributed per phase.", "phase", phaseLabels,
		p.QueueWait, p.BatchWait, p.Reopen, p.Pulse, p.Ladder)
	return m
}

// appendNum appends a sample value in the shortest form that reads back
// as the same float64, without an exponent: valid in both the exposition
// and JSON. Most values are integers, which take the fast path.
func appendNum(b []byte, v float64) []byte {
	if i := int64(v); float64(i) == v && -1<<53 < i && i < 1<<53 {
		return strconv.AppendInt(b, i, 10)
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}
