// Package audit implements the sanitization audit ledger: per-secret
// provenance tracking for every physical copy of secured data, with
// phase-attributed T_insecure windows.
//
// The paper's T_insecure bound is stated per logical page, but a secured
// logical page does not live in one place: the initial program puts it on
// one physical page, GC relocation copies it elsewhere, and the recovery
// ladder (RelocateLive after a pLock failure, copy-out before a recovery
// erase) scatters further copies. The ledger models this as a *secret* —
// one generation of secured data — owning a set of physical copies. A
// copy becomes *exposed* when it is invalidated (stale but still
// readable from the cells) and stops being exposed when a pLock, bLock,
// scrub, or erase physically destroys it. The secret's insecurity window
// is open exactly while it has at least one exposed copy, so the window
// closes only when *every* copy is locked or erased — the multi-copy
// generalization of the old single-page invalidation→destruction
// pairing.
//
// Every closed window is attributed to phases that sum exactly to the
// window's span (an invariant checked as each window closes and reported
// by the verifier):
//
//   - queue_wait: from window open to the issue of the destroying
//     command (host/GC queue time).
//   - batch_wait: the same span when the closing destruction was a
//     batched SBPI pulse — time bought by the lock manager's deadline
//     knob.
//   - reopen: the same span when the window is a relocation-induced
//     reopening (the secret had already closed a window before).
//   - pulse: issue→completion of the destroying command on the normal
//     path.
//   - ladder: the whole window when any of its copies was destroyed
//     under a recovery-ladder rung (pLock→bLock escalation, recovery
//     erase, retirement backstop) — recovery dominates, so the ladder
//     phase takes precedence over the wait phases.
//
// The ledger also reproduces the legacy per-copy T_insecure sample
// (first invalidation to destruction, negative spans clamped to zero) so
// existing telemetry keeps its exact values.
package audit

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind discriminates ledger events.
type Kind uint8

const (
	// KindCopy registers a new physical copy of a secret.
	KindCopy Kind = iota
	// KindInvalidate marks a registered copy stale (exposed). Unregistered
	// pages are adopted as single-copy secrets so pre-ledger producers
	// keep working.
	KindInvalidate
	// KindDestroy records the physical destruction of an exposed copy.
	KindDestroy
)

// Origin says how a physical copy came to hold secured data.
type Origin uint8

const (
	// OriginHost is the initial program of a host write (a new secret).
	OriginHost Origin = iota
	// OriginGC is a garbage-collection relocation of a live copy.
	OriginGC
	// OriginEvacuate is a recovery-ladder relocation (RelocateLive after
	// a pLock failure, copy-out before a recovery erase).
	OriginEvacuate
	// OriginQuarantine is the partial payload a failed program left in
	// the cells; it is its own single-copy secret.
	OriginQuarantine
	// OriginUnknown marks a copy adopted at invalidation time because it
	// was never registered (legacy producers).
	OriginUnknown
	numOrigins
)

// NumOrigins is the number of distinct copy origins.
const NumOrigins = int(numOrigins)

func (o Origin) String() string {
	switch o {
	case OriginHost:
		return "host"
	case OriginGC:
		return "gc"
	case OriginEvacuate:
		return "evacuate"
	case OriginQuarantine:
		return "quarantine"
	case OriginUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// Cause says which mechanism destroyed a copy.
type Cause uint8

const (
	// CauseUnspecified is a destruction reported without attribution
	// (legacy Destroyed calls).
	CauseUnspecified Cause = iota
	// CausePLock is a per-page Evanesco page lock.
	CausePLock
	// CausePLockBatch is a batched wordline SBPI pulse.
	CausePLockBatch
	// CauseBLock is an Evanesco block lock.
	CauseBLock
	// CauseErase is a block erase.
	CauseErase
	// CauseScrub is a reprogram-based scrub pulse.
	CauseScrub
	numCauses
)

// NumCauses is the number of distinct destruction causes.
const NumCauses = int(numCauses)

func (c Cause) String() string {
	switch c {
	case CauseUnspecified:
		return "unspecified"
	case CausePLock:
		return "plock"
	case CausePLockBatch:
		return "plock_batch"
	case CauseBLock:
		return "block"
	case CauseErase:
		return "erase"
	case CauseScrub:
		return "scrub"
	default:
		return fmt.Sprintf("Cause(%d)", uint8(c))
	}
}

// Phase is one slice of a closed window's attribution.
type Phase uint8

const (
	// PhaseQueueWait is open→issue of the closing destruction.
	PhaseQueueWait Phase = iota
	// PhaseBatchWait is the wait of a window closed by a batched pulse.
	PhaseBatchWait
	// PhaseReopen is the wait of a relocation-induced reopened window.
	PhaseReopen
	// PhasePulse is issue→completion on the normal path.
	PhasePulse
	// PhaseLadder is issue→completion under a recovery-ladder rung.
	PhaseLadder
	numPhases
)

// NumPhases is the number of distinct attribution phases.
const NumPhases = int(numPhases)

func (p Phase) String() string {
	switch p {
	case PhaseQueueWait:
		return "queue_wait"
	case PhaseBatchWait:
		return "batch_wait"
	case PhaseReopen:
		return "reopen"
	case PhasePulse:
		return "pulse"
	case PhaseLadder:
		return "ladder"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// NoSrc marks a copy event with no source copy (host program,
// quarantine).
const NoSrc = ^uint32(0)

// Event is one page-lifecycle observation: the FTL reports every copy,
// invalidation and destruction, of secured and unsecured pages alike,
// and each consumer keeps what it tracks (the ledger only secured
// copies). It is passed by value on the stack — producers must not
// allocate to build one (the AllocsPerRun guards in ssd and ftl fail if
// they do).
type Event struct {
	Kind Kind
	// Secured says the page holds secured data (KindCopy,
	// KindInvalidate). The ledger must never see an unsecured copy or
	// invalidation: it would adopt the page as a secret.
	Secured bool
	// Page is the physical page the event concerns.
	Page uint32
	// Src is the physical page the data was copied from (KindCopy of a
	// relocation); NoSrc otherwise.
	Src uint32
	// LPA is the logical page (KindCopy; -1 when unknown/none).
	LPA int64
	// File is the owning file's annotation (0 when the write carried
	// none).
	File uint64
	// Origin classifies a KindCopy registration.
	Origin Origin
	// Cause classifies a KindDestroy destruction.
	Cause Cause
	// Dep is when the destroying command was issued (KindDestroy); the
	// span Dep→At is the pulse/ladder execution phase.
	Dep sim.Micros
	// At is the simulated event time (registration, invalidation, or
	// destruction completion).
	At sim.Micros
	// Ladder marks a destruction executed under a recovery-ladder rung.
	Ladder bool
}

// entry is the ledger's word for one physical page; the zero value is a
// page holding no registered copy. Its low two bits say what the rest
// holds. A secret with one live copy and no exposed one lives inline in
// that copy's entry; any other secret takes a slot, which its copies'
// entries name.
type entry uint64

const (
	entryNone   entry = iota
	entryInline       // the page's secret: LPA above bit 6, origin in bits 3-5, bit 2 closed
	entryLive         // a live copy of the secret in slot e>>2
	entryStale        // an exposed copy, its open time in exposures e>>2
)

func (e entry) tag() entry   { return e & 3 }
func (e entry) index() int32 { return int32(e >> 2) }

// inline packs a one-copy secret into a page entry; ok is false when the
// LPA does not fit the entry's 58 bits, and the secret keeps a slot.
func inline(lpa int64, origin Origin, closed bool) (e entry, ok bool) {
	e = entry(lpa)<<6 | entry(origin)<<3 | entryInline
	if closed {
		e |= 4
	}
	return e, int64(e)>>6 == lpa
}

// secret is the slot of one generation of secured data that has two or
// more copies or an exposed one, with its window accounting. A slot is
// reused once its secret moves back inline or loses its last copy, so the
// ledger holds at most as many as such secrets were ever alive at once.
type secret struct {
	lpa       int64
	openedAt  sim.Micros // valid while exposed > 0
	copies    int32      // registered, not yet destroyed
	exposed   int32      // stale, not yet destroyed
	live      uint32     // XOR of the live copies' pages: the page itself when one is left
	origin    Origin
	reopened  bool // current window is a reopening
	ladderHit bool // a ladder destruction occurred in the current window
	closed    bool // a window has closed: the next one is a reopening
}

// exposure is one exposed copy; secret is -1 once the entry is free.
type exposure struct {
	openAt sim.Micros // the copy's first invalidation
	secret int32
	page   uint32
}

// table is a free-listed store: put fills a released index first.
type table[T any] struct {
	items metrics.Log[T]
	free  []int32
}

func (t *table[T]) put(v T) int32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		*t.items.At(int(i)) = v
		return i
	}
	t.items.Append(v)
	return int32(t.items.Len() - 1)
}

func (t *table[T]) at(i int32) *T { return t.items.At(int(i)) }

func (t *table[T]) release(i int32) { t.free = append(t.free, i) }

// Ledger accumulates provenance events. It is not safe for concurrent
// use; like the trace Recorder it belongs to exactly one simulated
// device.
type Ledger struct {
	pages     metrics.Log[entry] // indexed by physical page, extended to the highest page seen
	slots     table[secret]
	exposures table[exposure]
	created   int // secrets ever created

	tInsec    metrics.Sample // per-copy windows (legacy semantics)
	tInsecSum sim.Micros     // running total of the per-copy windows
	windows   metrics.Sample // per-secret closed windows

	openCopies   int
	openSecrets  int // secrets with exposed > 0
	originCounts [NumOrigins]uint64
	causeCounts  [NumCauses]uint64
	phaseTotals  [NumPhases]sim.Micros

	registered     uint64
	destroyed      uint64
	windowCount    uint64
	reopenedCount  uint64
	ladderWindows  uint64
	ladderDestroys uint64
	windowSum      sim.Micros
	phaseSumErrors int // closed windows whose phase slices missed their span
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// pageAt returns the entry of a physical page, extending the index to
// cover it.
func (l *Ledger) pageAt(page uint32) *entry {
	for l.pages.Len() <= int(page) {
		l.pages.Append(entryNone)
	}
	return l.pages.At(int(page))
}

// slotOf returns the slot of the secret whose copy is on page, moving an
// inline secret into a new slot; -1 when the page holds no copy.
func (l *Ledger) slotOf(page uint32) int32 {
	switch e := *l.pages.At(int(page)); e.tag() {
	case entryInline:
		idx := l.slots.put(secret{lpa: int64(e) >> 6, origin: Origin(e >> 3 & 7), closed: e&4 != 0, copies: 1, live: page})
		*l.pages.At(int(page)) = entryLive | entry(idx)<<2
		return idx
	case entryLive:
		return e.index()
	case entryStale:
		return l.exposures.at(e.index()).secret
	}
	return -1
}

// settle releases a slot whose secret lost its last copy, or moves the
// secret back inline into its one live copy's entry when none is exposed.
func (l *Ledger) settle(idx int32) {
	s := l.slots.at(idx)
	if s.copies == 1 && s.exposed == 0 {
		e, ok := inline(s.lpa, s.origin, s.closed)
		if !ok {
			return
		}
		*l.pages.At(int(s.live)) = e
	} else if s.copies > 0 {
		return
	}
	l.slots.release(idx)
}

// Record applies one event and reports whether the exposed-copy count
// changed (the Recorder uses this to emit the insecure-windows gauge
// exactly when the legacy tracker did).
func (l *Ledger) Record(ev Event) bool {
	switch ev.Kind {
	case KindCopy:
		l.register(ev)
		return false
	case KindInvalidate:
		return l.invalidate(ev.Page, ev.At)
	case KindDestroy:
		return l.destroy(ev)
	default:
		return false
	}
}

func (l *Ledger) register(ev Event) {
	l.originCounts[ev.Origin]++
	l.registered++
	relocation := (ev.Origin == OriginGC || ev.Origin == OriginEvacuate) && ev.Src != NoSrc
	c := l.pageAt(ev.Page)
	switch c.tag() {
	case entryStale:
		// A physical page can only be reprogrammed after an erase, and an
		// erase destroys (and deregisters) every copy on the block first —
		// so a collision means a producer skipped the destruction. Retire
		// the stale entry as an unattributed destruction to keep the
		// per-secret books balanced.
		l.destroy(Event{Kind: KindDestroy, Page: ev.Page, Cause: CauseUnspecified, Dep: ev.At, At: ev.At})
	case entryInline, entryLive:
		if relocation && ev.Src == ev.Page {
			return // the live copy replaces itself in its own secret
		}
		// The overwritten live copy leaves its secret; an inline secret
		// goes with it.
		old := *c
		*c = entryNone
		if old.tag() == entryLive {
			s := l.slots.at(old.index())
			s.copies--
			s.live ^= ev.Page
			l.settle(old.index())
		}
	}
	idx := int32(-1)
	if relocation && int(ev.Src) < l.pages.Len() {
		idx = l.slotOf(ev.Src)
	}
	if idx < 0 {
		l.created++
		if e, ok := inline(ev.LPA, ev.Origin, false); ok {
			*c = e
			return
		}
		idx = l.slots.put(secret{lpa: ev.LPA, origin: ev.Origin})
	}
	s := l.slots.at(idx)
	s.copies++
	s.live ^= ev.Page
	*c = entryLive | entry(idx)<<2
}

// invalidate marks the copy on page stale, adopting an unregistered page
// as a single-copy secret. Re-invalidating an already stale copy is a
// no-op: the first invalidation wins.
func (l *Ledger) invalidate(page uint32, at sim.Micros) bool {
	c := l.pageAt(page)
	if c.tag() == entryStale {
		return false
	}
	idx := l.slotOf(page)
	if idx < 0 {
		l.created++
		l.originCounts[OriginUnknown]++
		l.registered++
		idx = l.slots.put(secret{lpa: -1, origin: OriginUnknown, copies: 1, live: page})
	}
	*c = entryStale | entry(l.exposures.put(exposure{openAt: at, secret: idx, page: page}))<<2
	l.openCopies++
	s := l.slots.at(idx)
	s.live ^= page
	s.exposed++
	if s.exposed == 1 {
		l.openSecrets++
		s.openedAt = at
		s.reopened = s.closed
		s.ladderHit = false
	}
	return true
}

func (l *Ledger) destroy(ev Event) bool {
	if int(ev.Page) >= l.pages.Len() || l.pages.At(int(ev.Page)).tag() != entryStale {
		// Destroying a page with no open window is a no-op (recovery
		// paths may report the same destruction twice), and live copies
		// are never destroyed (erase requires a fully stale block).
		return false
	}
	c := l.pages.At(int(ev.Page))
	x := l.exposures.at(c.index())
	d := ev.At - x.openAt
	if d < 0 {
		// A GC relocation can advance the invalidation clock past the
		// lock's (request-anchored) completion; the stale copy was then
		// locked before it was ever exposed.
		d = 0
	}
	idx := x.secret
	x.secret = -1
	l.exposures.release(c.index())
	*c = entryNone
	l.tInsec.Add(float64(d))
	l.tInsecSum += d
	l.openCopies--
	l.causeCounts[ev.Cause]++
	l.destroyed++
	s := l.slots.at(idx)
	s.copies--
	s.exposed--
	if ev.Ladder {
		l.ladderDestroys++
		s.ladderHit = true
	}
	if s.exposed == 0 {
		l.openSecrets--
		l.closeWindow(s, ev)
	}
	l.settle(idx)
	return true
}

// closeWindow attributes the secret's just-closed window. The wait and
// execution slices are carved from the same span, so their sum equals
// the window by construction; a window whose slices miss it counts as a
// phase-sum error, which Verify reports.
func (l *Ledger) closeWindow(s *secret, ev Event) {
	total := ev.At - s.openedAt
	if total < 0 {
		total = 0
	}
	wait := ev.Dep - s.openedAt
	if wait < 0 {
		wait = 0
	}
	if wait > total {
		wait = total
	}
	exec := total - wait

	var phases [NumPhases]sim.Micros
	if s.ladderHit {
		// Recovery dominated the window: the whole span is ladder time
		// (precedence ladder > reopen > batch > queue), so a window that
		// needed the ladder is never invisible in the breakdown even when
		// the closing destruction itself took zero execution time.
		phases[PhaseLadder] = total
	} else {
		waitPhase := PhaseQueueWait
		switch {
		case s.reopened:
			waitPhase = PhaseReopen
		case ev.Cause == CausePLockBatch:
			waitPhase = PhaseBatchWait
		}
		phases[waitPhase] = wait
		phases[PhasePulse] = exec
	}
	var sum sim.Micros
	for p, d := range phases {
		sum += d
		l.phaseTotals[p] += d
	}
	if sum != total {
		l.phaseSumErrors++
	}
	s.closed = true

	l.windows.Add(float64(total))
	l.windowSum += total
	l.windowCount++
	if s.reopened {
		l.reopenedCount++
	}
	if s.ladderHit {
		l.ladderWindows++
	}
}

// TInsec returns the legacy per-copy T_insecure sample (µs from first
// invalidation of a copy to its destruction). Owned by the ledger.
func (l *Ledger) TInsec() *metrics.Sample { return &l.tInsec }

// TInsecSum returns the running total of the closed per-copy windows,
// maintained incrementally so periodic emitters stay O(1).
func (l *Ledger) TInsecSum() sim.Micros { return l.tInsecSum }

// Windows returns the per-secret closed-window sample (µs). Owned by
// the ledger.
func (l *Ledger) Windows() *metrics.Sample { return &l.windows }

// OpenCopies reports how many copies are currently exposed (stale but
// not destroyed) — the count of open per-copy windows.
func (l *Ledger) OpenCopies() int { return l.openCopies }

// OldestOpen returns the earliest open-window start among exposed
// copies; ok is false when none is open.
func (l *Ledger) OldestOpen() (at sim.Micros, ok bool) {
	if l.openCopies == 0 {
		return 0, false
	}
	l.eachExposed(func(x *exposure) {
		if !ok || x.openAt < at {
			at, ok = x.openAt, true
		}
	})
	return at, ok
}

// eachExposed calls fn for every exposed copy. The exposure table holds
// no more entries than copies were ever exposed at once, so a walk costs
// little while few are.
func (l *Ledger) eachExposed(fn func(x *exposure)) {
	for i := 0; i < l.exposures.items.Len(); i++ {
		if x := l.exposures.items.At(i); x.secret >= 0 {
			fn(x)
		}
	}
}

// PhaseBreakdown is the JSON-stable per-phase attribution in µs.
type PhaseBreakdown struct {
	QueueWait int64 `json:"queue_wait"`
	BatchWait int64 `json:"batch_wait"`
	Reopen    int64 `json:"reopen"`
	Pulse     int64 `json:"pulse"`
	Ladder    int64 `json:"ladder"`
}

func breakdown(p [NumPhases]sim.Micros) PhaseBreakdown {
	return PhaseBreakdown{
		QueueWait: int64(p[PhaseQueueWait]),
		BatchWait: int64(p[PhaseBatchWait]),
		Reopen:    int64(p[PhaseReopen]),
		Pulse:     int64(p[PhasePulse]),
		Ladder:    int64(p[PhaseLadder]),
	}
}

// DestroyBreakdown counts destroyed copies per cause.
type DestroyBreakdown struct {
	Unspecified uint64 `json:"unspecified"`
	PLock       uint64 `json:"plock"`
	PLockBatch  uint64 `json:"plock_batch"`
	BLock       uint64 `json:"block"`
	Erase       uint64 `json:"erase"`
	Scrub       uint64 `json:"scrub"`
}

// CopyBreakdown counts registered copies per origin.
type CopyBreakdown struct {
	Host       uint64 `json:"host"`
	GC         uint64 `json:"gc"`
	Evacuate   uint64 `json:"evacuate"`
	Quarantine uint64 `json:"quarantine"`
	Unknown    uint64 `json:"unknown"`
}

// Stats is the ledger's JSON-stable summary. Secrets counts every secret
// ever created, including those whose slots were reused. Every field is
// derived incrementally from the event stream, so it is bit-identical for
// any parallel worker count replaying the same simulation.
type Stats struct {
	Secrets          int              `json:"secrets"`
	OpenSecrets      int              `json:"open_secrets"`
	ExposedCopies    int              `json:"exposed_copies"`
	LiveCopies       int              `json:"live_copies"`
	CopiesRegistered uint64           `json:"copies_registered"`
	CopiesDestroyed  uint64           `json:"copies_destroyed"`
	Copies           CopyBreakdown    `json:"copies"`
	Destroys         DestroyBreakdown `json:"destroys"`
	Windows          uint64           `json:"windows"`
	ReopenedWindows  uint64           `json:"reopened_windows"`
	LadderWindows    uint64           `json:"ladder_windows"`
	LadderDestroys   uint64           `json:"ladder_destroys"`
	WindowSumUs      int64            `json:"window_sum_us"`
	OldestOpenUs     int64            `json:"oldest_open_us"`
	Phases           PhaseBreakdown   `json:"phase_us"`
}

// Stats summarizes the ledger at the given horizon (OldestOpenUs is the
// age of the oldest still-open window relative to it). Every field but
// OldestOpenUs is a running counter, so a periodic emitter pays O(1) per
// call while no copy is exposed and otherwise one walk of the exposure
// table.
func (l *Ledger) Stats(horizon sim.Micros) Stats {
	st := Stats{
		Secrets:          l.created,
		OpenSecrets:      l.openSecrets,
		ExposedCopies:    l.openCopies,
		CopiesRegistered: l.registered,
		CopiesDestroyed:  l.destroyed,
		Copies: CopyBreakdown{
			Host:       l.originCounts[OriginHost],
			GC:         l.originCounts[OriginGC],
			Evacuate:   l.originCounts[OriginEvacuate],
			Quarantine: l.originCounts[OriginQuarantine],
			Unknown:    l.originCounts[OriginUnknown],
		},
		Destroys: DestroyBreakdown{
			Unspecified: l.causeCounts[CauseUnspecified],
			PLock:       l.causeCounts[CausePLock],
			PLockBatch:  l.causeCounts[CausePLockBatch],
			BLock:       l.causeCounts[CauseBLock],
			Erase:       l.causeCounts[CauseErase],
			Scrub:       l.causeCounts[CauseScrub],
		},
		Windows:         l.windowCount,
		ReopenedWindows: l.reopenedCount,
		LadderWindows:   l.ladderWindows,
		LadderDestroys:  l.ladderDestroys,
		WindowSumUs:     int64(l.windowSum),
		Phases:          breakdown(l.phaseTotals),
	}
	st.LiveCopies = int(int64(l.registered) - int64(l.destroyed) - int64(l.openCopies))
	if at, ok := l.OldestOpen(); ok {
		if age := horizon - at; age > 0 {
			st.OldestOpenUs = int64(age)
		}
	}
	return st
}

// OpenCopy is one still-exposed copy in a verifier report.
type OpenCopy struct {
	Page     uint32 `json:"page"`
	LPA      int64  `json:"lpa"`
	Origin   string `json:"origin"`
	OpenedUs int64  `json:"opened_us"`
}

// VerifyReport is the end-of-run verifier's result.
type VerifyReport struct {
	Secrets        int        `json:"secrets"`
	OpenSecrets    int        `json:"open_secrets"`
	ExposedCopies  int        `json:"exposed_copies"`
	PhaseSumErrors int        `json:"phase_sum_errors"`
	OldestOpenUs   int64      `json:"oldest_open_us"`
	Open           []OpenCopy `json:"open,omitempty"`
}

// Clean reports whether the run left zero exposed copies and every
// closed window's phase attribution sums to its span.
func (r VerifyReport) Clean() bool {
	return r.ExposedCopies == 0 && r.PhaseSumErrors == 0
}

// Err returns a descriptive error when the report is not clean.
func (r VerifyReport) Err() error {
	if r.Clean() {
		return nil
	}
	return fmt.Errorf("audit: %d exposed secured copies across %d open secrets (oldest %dµs), %d phase-sum violations",
		r.ExposedCopies, r.OpenSecrets, r.OldestOpenUs, r.PhaseSumErrors)
}

// Verify checks the end-of-run security and accounting invariants: no
// secret may retain a live unlocked (exposed) copy, and every closed
// window's phase slices must sum exactly to its span. The open list is
// in page order.
func (l *Ledger) Verify(horizon sim.Micros) VerifyReport {
	rep := VerifyReport{Secrets: l.created, ExposedCopies: l.openCopies, PhaseSumErrors: l.phaseSumErrors}
	for i := 0; i < l.slots.items.Len(); i++ {
		if l.slots.items.At(i).exposed > 0 {
			rep.OpenSecrets++
		}
	}
	l.eachExposed(func(x *exposure) {
		s := l.slots.at(x.secret)
		rep.Open = append(rep.Open, OpenCopy{
			Page: x.page, LPA: s.lpa, Origin: s.origin.String(), OpenedUs: int64(x.openAt),
		})
	})
	slices.SortFunc(rep.Open, func(a, b OpenCopy) int { return cmp.Compare(a.Page, b.Page) })
	if at, ok := l.OldestOpen(); ok {
		if age := horizon - at; age > 0 {
			rep.OldestOpenUs = int64(age)
		}
	}
	return rep
}
