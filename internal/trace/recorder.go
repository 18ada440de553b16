package trace

import (
	"repro/internal/audit"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// RecorderConfig sizes a Recorder for a device.
type RecorderConfig struct {
	// Chips and Channels size the busy-time accumulators. A chip or bus
	// event outside them is a producer bug, and panics.
	Chips    int
	Channels int
}

// Recorder is the standard Collector: it counts events and accumulates
// per-op-class latency distributions, per-chip/per-channel busy time,
// device gauges, and the T_insecure windows of secured pages. It keeps
// the events themselves only when given a spill (SpillTo), for the event
// exports, and each gauge in a capped store: of what it holds in memory,
// only the ledger's samples of closed windows grow with the run.
type Recorder struct {
	cfg RecorderConfig

	spill   *spillState
	dropped uint64     // events a failed spill write lost
	horizon sim.Micros // latest End seen

	classCount [numOpClasses]uint64
	classLat   [numOpClasses]tally
	classWait  [numOpClasses]sim.Micros // queueing delay, issue to service start

	chipBusy []sim.Micros
	chanBusy []sim.Micros

	gauges [numGaugeKinds]gaugeStore

	ledger *audit.Ledger

	stream *streamState
}

// NewRecorder builds a Recorder for a device with the given layout.
func NewRecorder(cfg RecorderConfig) *Recorder {
	return &Recorder{
		cfg:      cfg,
		chipBusy: make([]sim.Micros, max(cfg.Chips, 0)),
		chanBusy: make([]sim.Micros, max(cfg.Channels, 0)),
		ledger:   audit.NewLedger(),
	}
}

// Enabled implements Collector.
func (r *Recorder) Enabled() bool { return true }

// Op implements Collector.
func (r *Recorder) Op(ev Event) {
	if r.spill != nil {
		r.spillEvent(&ev)
	}
	if ev.End > r.horizon {
		r.horizon = ev.End
	}
	r.classCount[ev.Class]++
	r.classLat[ev.Class].add(int64(ev.Dur()))
	if ev.Queued < ev.Start {
		r.classWait[ev.Class] += ev.Start - ev.Queued
	}
	switch ev.Class {
	case OpXfer:
		r.chanBusy[ev.Channel] += ev.Dur()
	case OpGC, OpHostRead, OpHostWrite, OpHostTrim,
		OpProgramFail, OpEraseFail, OpPLockFail, OpBLockFail, OpRetire,
		OpPLockBatchFail:
		// FTL/host-level spans and fault/recovery markers overlap chip
		// occupancy (the underlying chip op already counted); not busy
		// time. OpReadRetry IS busy time: each failed attempt burned
		// tREAD on the chip, so it falls through to the default case.
	default:
		r.chipBusy[ev.Chip] += ev.Dur()
	}
	if r.stream != nil && r.horizon >= r.stream.next {
		r.emitStreamPoint()
	}
}

// Gauge implements Collector. A kind outside the GaugeKind table is a
// producer bug and panics.
func (r *Recorder) Gauge(kind GaugeKind, at sim.Micros, v float64) {
	r.gauges[kind].record(int64(at), v)
}

// Audit implements Collector: events feed the provenance ledger, and
// exposure changes keep the insecure-windows gauge exactly as the
// legacy per-page tracker emitted it. Unsecured copies and invalidations
// stop here — the ledger adopts an unregistered invalidated page as a
// secret. Their destructions pass: destroying a page the ledger never
// registered is a no-op.
func (r *Recorder) Audit(ev audit.Event) {
	if !ev.Secured && ev.Kind != audit.KindDestroy {
		return
	}
	if r.ledger.Record(ev) {
		r.Gauge(GaugeInsecureWindows, ev.At, float64(r.ledger.OpenCopies()))
	}
}

// TotalEvents reports every operation observed, kept or not.
func (r *Recorder) TotalEvents() uint64 {
	var n uint64
	for _, c := range r.classCount {
		n += c
	}
	return n
}

// Dropped reports how many events a failed spill write lost; the event
// exports then return that write's error.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Horizon returns the latest completion time observed.
func (r *Recorder) Horizon() sim.Micros { return r.horizon }

// TInsecure returns the closed T_insecure windows (µs from invalidation
// of a secured page to its physical destruction).
func (r *Recorder) TInsecure() *metrics.Sample { return r.ledger.TInsec() }

// AuditLedger exposes the provenance ledger for reports and
// verification.
func (r *Recorder) AuditLedger() *audit.Ledger { return r.ledger }
