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
	"fmt"

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

// copyState is the ledger's entry for one physical page. The zero value
// is a page holding no registered copy.
type copyState struct {
	secret int32
	state  uint8      // copyNone, copyLive or copyStale
	openAt sim.Micros // valid when stale: per-copy window open time
}

const (
	copyNone  uint8 = iota
	copyLive        // registered, still the current version
	copyStale       // invalidated, not yet destroyed: exposed
)

// secret is one generation of secured data and its window accounting.
// Its slot is reused once its last copy is destroyed, so the ledger holds
// at most as many secrets as were ever alive at once.
type secret struct {
	lpa       int64
	openedAt  sim.Micros // valid while exposed > 0
	copies    int32      // registered, not yet destroyed; the slot is free at 0
	exposed   int32      // stale, not yet destroyed
	origin    Origin
	reopened  bool // current window is a reopening
	ladderHit bool // a ladder destruction occurred in the current window
	closed    bool // a window has closed: the next one is a reopening
}

// Ledger accumulates provenance events. It is not safe for concurrent
// use; like the trace Recorder it belongs to exactly one simulated
// device.
type Ledger struct {
	copies  metrics.Log[copyState] // indexed by physical page, extended to the highest page seen
	staleIn []int32                // exposed copies in each run of metrics.LogChunk pages
	secrets metrics.Log[secret]
	free    []int32 // slots of secrets whose every copy is destroyed
	created int     // secrets ever created

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

// newSecret stores a secret in a free slot, or a new one, and returns its
// index.
func (l *Ledger) newSecret(lpa int64, origin Origin) int32 {
	l.created++
	s := secret{lpa: lpa, origin: origin}
	if n := len(l.free); n > 0 {
		idx := l.free[n-1]
		l.free = l.free[:n-1]
		*l.secrets.At(int(idx)) = s
		return idx
	}
	l.secrets.Append(s)
	return int32(l.secrets.Len() - 1)
}

// copyAt returns the entry of a physical page, extending the index to
// cover it.
func (l *Ledger) copyAt(page uint32) *copyState {
	for l.copies.Len() <= int(page) {
		l.copies.Append(copyState{})
	}
	return l.copies.At(int(page))
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
	c := l.copyAt(ev.Page)
	if c.state != copyNone {
		// A physical page can only be reprogrammed after an erase, and an
		// erase destroys (and deregisters) every copy on the block first —
		// so a collision means a producer skipped the destruction. Retire
		// the stale entry as an unattributed destruction to keep the
		// per-secret books balanced.
		l.destroy(Event{Kind: KindDestroy, Page: ev.Page, Cause: CauseUnspecified, Dep: ev.At, At: ev.At})
	}
	idx := int32(-1)
	switch ev.Origin {
	case OriginGC, OriginEvacuate:
		if ev.Src != NoSrc && int(ev.Src) < l.copies.Len() {
			if src := l.copies.At(int(ev.Src)); src.state != copyNone {
				idx = src.secret
			}
		}
	}
	if idx < 0 {
		idx = l.newSecret(ev.LPA, ev.Origin)
	}
	*c = copyState{secret: idx, state: copyLive}
	l.secrets.At(int(idx)).copies++
	l.originCounts[ev.Origin]++
	l.registered++
}

// invalidate marks the copy on page stale, adopting an unregistered page
// as a single-copy secret. Re-invalidating an already stale copy is a
// no-op: the first invalidation wins.
func (l *Ledger) invalidate(page uint32, at sim.Micros) bool {
	c := l.copyAt(page)
	switch c.state {
	case copyStale:
		return false
	case copyNone:
		c.secret = l.newSecret(-1, OriginUnknown)
		l.originCounts[OriginUnknown]++
		l.registered++
		l.secrets.At(int(c.secret)).copies++
	}
	c.state = copyStale
	c.openAt = at
	l.openCopies++
	g := int(page) / metrics.LogChunk
	for len(l.staleIn) <= g {
		l.staleIn = append(l.staleIn, 0)
	}
	l.staleIn[g]++
	s := l.secrets.At(int(c.secret))
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
	if int(ev.Page) >= l.copies.Len() || l.copies.At(int(ev.Page)).state != copyStale {
		// Destroying a page with no open window is a no-op (recovery
		// paths may report the same destruction twice), and live copies
		// are never destroyed (erase requires a fully stale block).
		return false
	}
	c := l.copies.At(int(ev.Page))
	d := ev.At - c.openAt
	if d < 0 {
		// A GC relocation can advance the invalidation clock past the
		// lock's (request-anchored) completion; the stale copy was then
		// locked before it was ever exposed.
		d = 0
	}
	l.tInsec.Add(float64(d))
	l.tInsecSum += d
	l.openCopies--
	l.staleIn[int(ev.Page)/metrics.LogChunk]--
	l.causeCounts[ev.Cause]++
	l.destroyed++
	s := l.secrets.At(int(c.secret))
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
	if s.copies == 0 {
		l.free = append(l.free, c.secret)
	}
	*c = copyState{}
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
	l.eachStale(func(_ int, c *copyState) {
		if !ok || c.openAt < at {
			at, ok = c.openAt, true
		}
	})
	return at, ok
}

// eachStale calls fn for every exposed copy in page order. It visits only
// the pages of the chunks that hold one, so a walk costs little while few
// copies are exposed.
func (l *Ledger) eachStale(fn func(page int, c *copyState)) {
	for g, n := range l.staleIn {
		if n == 0 {
			continue
		}
		for page, end := g*metrics.LogChunk, min((g+1)*metrics.LogChunk, l.copies.Len()); page < end; page++ {
			if c := l.copies.At(page); c.state == copyStale {
				fn(page, c)
			}
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
// call while no copy is exposed and otherwise one walk of the index chunks
// that hold an exposed copy.
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
	for i := 0; i < l.secrets.Len(); i++ {
		if l.secrets.At(i).exposed > 0 {
			rep.OpenSecrets++
		}
	}
	l.eachStale(func(page int, c *copyState) {
		s := l.secrets.At(int(c.secret))
		rep.Open = append(rep.Open, OpenCopy{
			Page: uint32(page), LPA: s.lpa, Origin: s.origin.String(), OpenedUs: int64(c.openAt),
		})
	})
	if at, ok := l.OldestOpen(); ok {
		if age := horizon - at; age > 0 {
			rep.OldestOpenUs = int64(age)
		}
	}
	return rep
}
