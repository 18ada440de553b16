// Package trace is the device-wide tracing and telemetry layer of the
// SecureSSD simulator. It captures every simulated operation — NAND
// commands (read/program/erase/pLock/bLock/scrub), channel transfers, GC
// relocation passes, and host requests — as structured events with
// simulated start/end timestamps and chip/channel/block/page coordinates,
// plus live gauges (free blocks, lock-queue depth, page-status counts)
// and a T_insecure tracker measuring how long each secured page sits
// invalidated but not yet physically locked.
//
// The layer is wired behind the Collector interface. The Nop collector
// makes every call a no-op behind a single predictable branch, so the
// simulator's hot path pays near nothing when tracing is disabled; the
// Recorder implementation counts events (keeping them in a spill file
// when an event export is wanted) and accumulates per-op-class latency
// tallies, queue waits, busy time and capped gauges. The events export
// as a JSONL log or a Chrome trace_event file (opens directly in
// Perfetto / chrome://tracing). Everything else is one metric set of
// OpenMetrics families, built in one place: the OpenMetrics exposition
// renders all of it at the end of the run, and the periodic JSONL stream
// renders its counters, gauges and summary totals as the run goes.
package trace

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/sim"
)

// OpClass labels one kind of simulated activity.
type OpClass uint8

const (
	// OpRead is a NAND page read (tREAD) on a chip.
	OpRead OpClass = iota
	// OpProgram is a NAND page program (tPROG) on a chip.
	OpProgram
	// OpErase is a NAND block erase (tBERS) on a chip.
	OpErase
	// OpPLock is an Evanesco page lock (tpLock) on a chip.
	OpPLock
	// OpBLock is an Evanesco block lock (tbLock) on a chip.
	OpBLock
	// OpScrub is a reprogram-based scrub pulse on a chip.
	OpScrub
	// OpXfer is a page transfer on a channel bus.
	OpXfer
	// OpCopyback is an on-chip GC data move (internal read + program).
	OpCopyback
	// OpGC is one FTL garbage-collection pass over a victim block.
	OpGC
	// OpHostRead is a host read request (arrival to completion).
	OpHostRead
	// OpHostWrite is a host write request.
	OpHostWrite
	// OpHostTrim is a host trim request.
	OpHostTrim
	// OpProgramFail marks an injected program failure the FTL recovered
	// from (retry on a fresh page + quarantine of the consumed one). The
	// chip-level busy time is carried by the accompanying OpProgram
	// event; the marker classes below are zero-width annotations.
	OpProgramFail
	// OpEraseFail marks an injected erase failure (block retired).
	OpEraseFail
	// OpPLockFail marks an injected pLock failure (escalated to bLock).
	OpPLockFail
	// OpBLockFail marks an injected bLock failure (copy-out + erase).
	OpBLockFail
	// OpReadRetry is one failed read attempt (injected uncorrectable
	// errors) that the device retried. Unlike the markers above it is a
	// real chip occupancy: each attempt burned tREAD.
	OpReadRetry
	// OpRetire marks a block being retired from rotation after repeated
	// erase failures.
	OpRetire
	// OpPLockBatch is one batched SBPI pulse locking several pages of a
	// wordline at once (tpLock of chip occupancy, however many pages).
	OpPLockBatch
	// OpPLockBatchFail marks an injected batched-pulse failure (the lock
	// manager degrades to per-page retries). Marker: the burned tpLock is
	// carried by the accompanying OpPLockBatch event.
	OpPLockBatchFail
	// OpProgramMulti is a multi-plane program: one shared tPROG of cell
	// activity covering one page per plane (bus transfers are separate
	// OpXfer events, which is what makes the overlap visible in
	// Perfetto).
	OpProgramMulti
	// OpReadMulti is a multi-plane read: one shared tREAD covering one
	// page per plane.
	OpReadMulti
	numOpClasses
)

// NumOpClasses is the number of distinct event classes.
const NumOpClasses = int(numOpClasses)

var opClassNames = [numOpClasses]string{
	OpRead: "read", OpProgram: "program", OpErase: "erase", OpPLock: "pLock",
	OpBLock: "bLock", OpScrub: "scrub", OpXfer: "xfer",
	OpCopyback: "copyback", OpGC: "gc", OpHostRead: "host_read",
	OpHostWrite: "host_write", OpHostTrim: "host_trim",
	OpProgramFail: "program_fail", OpEraseFail: "erase_fail",
	OpPLockFail: "plock_fail", OpBLockFail: "block_fail",
	OpReadRetry: "read_retry", OpRetire: "retire",
	OpPLockBatch: "plock_batch", OpPLockBatchFail: "plock_batch_fail",
	OpProgramMulti: "program_multi", OpReadMulti: "read_multi",
}

func (c OpClass) String() string {
	if c < numOpClasses {
		return opClassNames[c]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// Event is one completed simulated operation. Coordinate fields not
// meaningful for the class are -1 (e.g. a host request has no chip, a
// bus transfer no block). Block is the device-global block index. The
// fields are ordered and sized to pack into 48 bytes: every producer
// passes one by value and the Chrome export sorts them in chunks.
type Event struct {
	Start   sim.Micros // when the resource began serving the operation
	End     sim.Micros // completion time
	Queued  sim.Micros // when the operation was issued (Start-Queued = queueing delay)
	LPA     int64      // logical page of a host request (-1 otherwise)
	Block   int32
	Page    int32
	Pages   int32 // host request length in pages (0 otherwise)
	Chip    int16
	Channel int8
	Class   OpClass
}

// Dur returns the event's service duration.
func (e Event) Dur() sim.Micros { return e.End - e.Start }

// GaugeKind labels a sampled device-level quantity.
type GaugeKind uint8

const (
	// GaugeFreeBlocks is the device-wide reusable-block count.
	GaugeFreeBlocks GaugeKind = iota
	// GaugeLockQueue is the lock manager's pending-sanitize queue depth
	// (pages awaiting a pLock/bLock decision) at request flush.
	GaugeLockQueue
	// GaugeValidPages is the count of live pages without a sanitization
	// requirement.
	GaugeValidPages
	// GaugeSecuredPages is the count of live pages requiring sanitization
	// on invalidation.
	GaugeSecuredPages
	// GaugeInvalidPages is the count of stale pages awaiting GC.
	GaugeInvalidPages
	// GaugeInsecureWindows is the number of secured pages currently
	// invalidated but not yet physically destroyed (open T_insecure
	// windows). The Recorder maintains it internally.
	GaugeInsecureWindows
	// GaugeRetiredBlocks is the device-wide count of blocks retired after
	// erase failures.
	GaugeRetiredBlocks
	numGaugeKinds
)

// NumGaugeKinds is the number of distinct gauge kinds.
const NumGaugeKinds = int(numGaugeKinds)

var gaugeKindNames = [numGaugeKinds]string{
	GaugeFreeBlocks:      "free_blocks",
	GaugeLockQueue:       "lock_queue",
	GaugeValidPages:      "valid_pages",
	GaugeSecuredPages:    "secured_pages",
	GaugeInvalidPages:    "invalid_pages",
	GaugeInsecureWindows: "insecure_windows",
	GaugeRetiredBlocks:   "retired_blocks",
}

func (k GaugeKind) String() string {
	if k < numGaugeKinds {
		return gaugeKindNames[k]
	}
	return fmt.Sprintf("GaugeKind(%d)", uint8(k))
}

// Collector receives telemetry from the simulator. Implementations must
// be cheap when disabled: every producer guards its calls with a single
// Enabled() check captured at construction, and Event values are passed
// on the stack, so a disabled collector costs one predictable branch.
type Collector interface {
	// Enabled reports whether the collector wants events at all.
	// Producers cache the result; it must not change over a run.
	Enabled() bool
	// Op records one completed operation.
	Op(ev Event)
	// Gauge records one sample of a device-level quantity.
	Gauge(kind GaugeKind, at sim.Micros, v float64)
	// Audit records one page-lifecycle event (see package audit): a
	// copy, an invalidation or a cause-attributed destruction, of a
	// secured or an unsecured page. Like Op, the Event is passed on the
	// stack; producers must not allocate to build one.
	Audit(ev audit.Event)
}

// Nop is the disabled collector: every method is a no-op.
type Nop struct{}

// Enabled implements Collector.
func (Nop) Enabled() bool { return false }

// Op implements Collector.
func (Nop) Op(Event) {}

// Gauge implements Collector.
func (Nop) Gauge(GaugeKind, sim.Micros, float64) {}

// Audit implements Collector.
func (Nop) Audit(audit.Event) {}
