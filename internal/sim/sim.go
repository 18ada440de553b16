// Package sim holds the simulated clock of the SSD emulator: a time unit
// and a busy-until resource. There is no event queue — the device model
// is closed-loop, and every chip operation computes its own completion
// time from the timelines it occupies.
//
// Time is measured in microseconds (Micros) because every NAND flash
// operation latency in the paper is specified in µs (nand.DefaultTiming).
//
// Timeline is a busy-until accumulator for a serially-reusable resource
// (a flash chip or a channel bus). Reserving k µs on a timeline returns
// the interval actually occupied, starting no earlier than the request
// time and no earlier than the end of the previously reserved interval.
package sim

import "fmt"

// Micros is a simulated timestamp or duration in microseconds.
type Micros int64

// Common durations.
const (
	Microsecond Micros = 1
	Millisecond Micros = 1000
	Second      Micros = 1000 * 1000
)

// Seconds converts the duration to floating-point seconds.
func (m Micros) Seconds() float64 { return float64(m) / float64(Second) }

// Millis converts the duration to floating-point milliseconds.
func (m Micros) Millis() float64 { return float64(m) / float64(Millisecond) }

func (m Micros) String() string {
	switch {
	case m >= Second:
		return fmt.Sprintf("%.3fs", m.Seconds())
	case m >= Millisecond:
		return fmt.Sprintf("%.3fms", m.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(m))
	}
}

// Timeline models a serially-reusable resource: each reservation occupies
// the resource exclusively. It is the backbone of the SSD timing model —
// one Timeline per flash chip and one per channel bus.
type Timeline struct {
	busyUntil Micros
	busyTotal Micros // accumulated occupied time, for utilization reports
	waitTotal Micros // accumulated queueing delay (grant start − request)
}

// Reserve books d microseconds starting no earlier than at. It returns the
// interval [start, end) that was actually granted.
func (t *Timeline) Reserve(at, d Micros) (start, end Micros) {
	start = at
	if t.busyUntil > start {
		start = t.busyUntil
	}
	end = start + d
	t.busyUntil = end
	t.busyTotal += d
	t.waitTotal += start - at
	return start, end
}

// BusyTotal returns the total reserved time.
func (t *Timeline) BusyTotal() Micros { return t.busyTotal }

// WaitTotal returns the accumulated queueing delay: how long reservations
// waited behind earlier ones before the resource started serving them.
// It is the contention signal the telemetry layer reports per chip.
func (t *Timeline) WaitTotal() Micros { return t.waitTotal }
