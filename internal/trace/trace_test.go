package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/audit"
	"repro/internal/sim"
)

// invalidate builds the event the FTL reports when a live page goes
// stale.
func invalidate(page uint32, secured bool, at sim.Micros) audit.Event {
	return audit.Event{Kind: audit.KindInvalidate, Secured: secured, Page: page,
		Src: audit.NoSrc, LPA: -1, At: at}
}

func TestNopCollectorIsDisabled(t *testing.T) {
	var n Nop
	if n.Enabled() {
		t.Fatal("Nop.Enabled() must be false")
	}
	// The no-op methods must be callable without effect.
	n.Op(Event{Class: OpRead, Start: 0, End: 80})
	n.Gauge(GaugeFreeBlocks, 0, 1)
	n.Audit(invalidate(1, true, 0))
	n.Audit(audit.Event{Kind: audit.KindDestroy, Page: 1, Src: audit.NoSrc, LPA: -1, Dep: 10, At: 10})
}

func TestOpClassStrings(t *testing.T) {
	want := map[OpClass]string{
		OpRead: "read", OpProgram: "program", OpErase: "erase",
		OpPLock: "pLock", OpBLock: "bLock", OpScrub: "scrub",
		OpXfer: "xfer", OpCopyback: "copyback", OpGC: "gc",
		OpHostRead: "host_read", OpHostWrite: "host_write", OpHostTrim: "host_trim",
		OpProgramFail: "program_fail", OpEraseFail: "erase_fail",
		OpPLockFail: "plock_fail", OpBLockFail: "block_fail",
		OpReadRetry: "read_retry", OpRetire: "retire",
		OpPLockBatch: "plock_batch", OpPLockBatchFail: "plock_batch_fail",
		OpProgramMulti: "program_multi", OpReadMulti: "read_multi",
	}
	if len(want) != NumOpClasses {
		t.Fatalf("test covers %d classes, enum has %d", len(want), NumOpClasses)
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("OpClass(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestRecorderCountsAndLatencies(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 2, Channels: 1})
	r.Op(Event{Class: OpRead, Start: 100, End: 180, Queued: 90, Chip: 0, Channel: 0})
	r.Op(Event{Class: OpRead, Start: 200, End: 280, Queued: 200, Chip: 1, Channel: 0})
	r.Op(Event{Class: OpProgram, Start: 300, End: 1000, Queued: 300, Chip: 0, Channel: 0})

	if got := r.classCount[OpRead]; got != 2 {
		t.Fatalf("read count = %d, want 2", got)
	}
	if got := r.classCount[OpProgram]; got != 1 {
		t.Fatalf("program count = %d, want 1", got)
	}
	if got := r.TotalEvents(); got != 3 {
		t.Fatalf("TotalEvents = %d, want 3", got)
	}
	if got := r.Horizon(); got != 1000 {
		t.Fatalf("Horizon = %v, want 1000", got)
	}
	if got := r.classLat[OpRead].sum(); got != 160 {
		t.Fatalf("read latency sum = %v, want 160", got)
	}
	// Only the first read waited (10µs).
	if got := r.classWait[OpRead]; got != 10 {
		t.Fatalf("read wait = %v, want 10", got)
	}
	if got := r.classLat[OpRead].n; got != 2 {
		t.Fatalf("read latency count = %d, want 2", got)
	}
}

func TestRecorderBusyAttribution(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 2, Channels: 2})
	// Chip-resident work on chip 0.
	r.Op(Event{Class: OpRead, Start: 0, End: 80, Chip: 0, Channel: 0})
	r.Op(Event{Class: OpProgram, Start: 80, End: 780, Chip: 0, Channel: 0})
	// Bus transfer on channel 1.
	r.Op(Event{Class: OpXfer, Start: 0, End: 40, Chip: 1, Channel: 1})
	// FTL/host spans overlap chip occupancy; they must not add busy time.
	r.Op(Event{Class: OpGC, Start: 0, End: 5000, Chip: 0, Channel: -1})
	r.Op(Event{Class: OpHostWrite, Start: 0, End: 900, Chip: -1, Channel: -1})

	// Chip 0 busy: 80+700 = 780; the GC span adds nothing.
	if got := r.chipBusy; got[0] != 780 || got[1] != 0 {
		t.Fatalf("chip busy = %v, want [780 0]", got)
	}
	if got := r.chanBusy; got[0] != 0 || got[1] != 40 {
		t.Fatalf("channel busy = %v, want [0 40]", got)
	}
}

// TestRecorderUnlimitedEvents: there is no event cap. Without a spill
// the Recorder counts every event and keeps none, so the event exports
// refuse to write a trace that would be missing them; with one, every
// event is exported.
func TestRecorderUnlimitedEvents(t *testing.T) {
	counted := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	kept := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	kept.SpillTo(&memSpill{})
	for i := 0; i < 3*spillFlush/8; i++ { // several spill flushes
		counted.Op(Event{Class: OpRead, Start: 0, End: 80, Chip: 0})
		kept.Op(Event{Class: OpRead, Start: 0, End: 80, Chip: 0})
	}
	var buf bytes.Buffer
	if err := counted.WriteJSONL(&buf); !errors.Is(err, errNoSpill) || counted.Dropped() != 0 {
		t.Fatalf("JSONL without a spill: err %v, %d dropped; want errNoSpill and 0", err, counted.Dropped())
	}
	if err := kept.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte{'\n'}); uint64(lines) != kept.TotalEvents() || kept.Dropped() != 0 {
		t.Fatalf("exported %d of %d events, %d dropped", lines, kept.TotalEvents(), kept.Dropped())
	}
	if counted.TotalEvents() != 3*spillFlush/8 {
		t.Fatalf("counted %d events, want %d", counted.TotalEvents(), 3*spillFlush/8)
	}
}

// TestEventSizeof pins the event every producer passes by value and the
// Chrome export sorts in chunks of chromeSortChunk: 48 bytes.
func TestEventSizeof(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 48", got)
	}
}

func TestTInsecureWindowPairing(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	// Insecure (non-secured) invalidations never open a window.
	r.Audit(invalidate(7, false, 100))
	if r.ledger.OpenCopies() != 0 {
		t.Fatal("non-secured invalidation opened a window")
	}
	// Secured invalidation opens, lock completion closes.
	r.Audit(invalidate(1, true, 1000))
	if r.ledger.OpenCopies() != 1 {
		t.Fatalf("open copies = %d, want 1", r.ledger.OpenCopies())
	}
	// Re-invalidating the same page must not reset the window start.
	r.Audit(invalidate(1, true, 1500))
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 1, Src: audit.NoSrc, LPA: -1, Dep: 2000, At: 2000})
	if r.ledger.OpenCopies() != 0 {
		t.Fatalf("open copies = %d after close, want 0", r.ledger.OpenCopies())
	}
	if got := r.TInsecure().Quantile(1); got != 1000 {
		t.Fatalf("T_insecure = %v, want 1000 (from the FIRST invalidation)", got)
	}
	// Destroying a page with no open window is a no-op.
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 42, Src: audit.NoSrc, LPA: -1, Dep: 5000, At: 5000})
	if r.TInsecure().N() != 1 {
		t.Fatalf("TInsecure N = %d, want 1", r.TInsecure().N())
	}
}

// TestUnsecuredLifecyclesNeverReachLedger: the FTL reports every page's
// lifecycle, and the ledger adopts any invalidated page it has no copy
// of as a secret — so the Recorder must stop unsecured copies AND
// invalidations. A stream with unsecured lifecycles interleaved (some
// starting at the invalidation, as after a remount) must leave the same
// ledger and insecure-windows gauge as the secured events alone.
func TestUnsecuredLifecyclesNeverReachLedger(t *testing.T) {
	mixed := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	securedOnly := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	type pageState struct {
		next    audit.Kind // the page's next lifecycle event
		secured bool
	}
	var pages [64]pageState
	rng := rand.New(rand.NewSource(5))
	var now sim.Micros
	for i := 0; i < 20_000; i++ {
		now += sim.Micros(rng.Intn(40))
		p := rng.Intn(len(pages))
		st := &pages[p]
		if st.next == audit.KindCopy {
			st.secured = rng.Intn(2) == 0
			if !st.secured && rng.Intn(4) == 0 {
				st.next = audit.KindInvalidate
			}
		}
		ev := audit.Event{Kind: st.next, Secured: st.secured && st.next != audit.KindDestroy, Page: uint32(p),
			Src: audit.NoSrc, LPA: -1, File: 9, Cause: audit.CauseErase, Dep: now, At: now}
		mixed.Audit(ev)
		if st.secured {
			securedOnly.Audit(ev)
		}
		st.next = (st.next + 1) % 3
	}
	got, want := mixed.AuditLedger(), securedOnly.AuditLedger()
	if want.Stats(now).Windows == 0 || want.OpenCopies() == 0 {
		t.Fatalf("script closed %d windows and left %d open: too tame", want.Stats(now).Windows, want.OpenCopies())
	}
	if got.Stats(now) != want.Stats(now) {
		t.Fatalf("Stats with unsecured events interleaved:\n got %+v\nwant %+v", got.Stats(now), want.Stats(now))
	}
	if !reflect.DeepEqual(got.Verify(now), want.Verify(now)) {
		t.Fatalf("Verify differs: got %+v, want %+v", got.Verify(now), want.Verify(now))
	}
	g, w := mixed.gauges[GaugeInsecureWindows].pts, securedOnly.gauges[GaugeInsecureWindows].pts
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("insecure-windows gauge has %d points, want %d equal ones", len(g), len(w))
	}
}

func TestTInsecureNegativeClampsToZero(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	// A GC relocation can record the invalidation (at the post-copy
	// clock) after the lock (anchored at the request start) completed.
	r.Audit(invalidate(3, true, 900))
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 3, Src: audit.NoSrc, LPA: -1, Dep: 500, At: 500})
	if got := r.TInsecure().Quantile(1); got != 0 {
		t.Fatalf("negative window = %v, want clamp to 0", got)
	}
}

func TestRecorderGauges(t *testing.T) {
	r := NewRecorder(RecorderConfig{Chips: 1, Channels: 1})
	r.Gauge(GaugeFreeBlocks, 100, 12)
	r.Gauge(GaugeFreeBlocks, 200, 11)
	r.Gauge(GaugeLockQueue, 100, 3)
	if got := r.gauges[GaugeFreeBlocks].pts; len(got) != 2 || got[1].V != 11 {
		t.Fatalf("free_blocks points = %v, want 2 ending at 11", got)
	}
	if got := len(r.gauges[GaugeLockQueue].pts); got != 1 {
		t.Fatalf("lock_queue series len = %d, want 1", got)
	}
	// The insecure-window gauge tracks open windows automatically.
	r.Audit(invalidate(1, true, 300))
	r.Audit(invalidate(2, true, 400))
	r.Audit(audit.Event{Kind: audit.KindDestroy, Page: 1, Src: audit.NoSrc, LPA: -1, Dep: 500, At: 500})
	g := r.gauges[GaugeInsecureWindows].pts
	if len(g) != 3 {
		t.Fatalf("insecure_windows points = %d, want 3", len(g))
	}
	if g[1].V != 2 || g[2].V != 1 {
		t.Fatalf("insecure_windows values = %v %v, want rise to 2 then fall to 1", g[1], g[2])
	}
	// A gauge of a kind the table does not name is a producer bug: it
	// panics instead of vanishing.
	defer func() {
		if recover() == nil {
			t.Error("a gauge of an unknown kind was accepted")
		}
	}()
	r.Gauge(numGaugeKinds, 600, 1)
}

func TestEventDur(t *testing.T) {
	ev := Event{Start: 100, End: 180}
	if ev.Dur() != 80 {
		t.Fatalf("Dur = %v, want 80", ev.Dur())
	}
}
