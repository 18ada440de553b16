package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pintest"
	"repro/internal/sim"
)

// randomScript is a seeded copy/invalidate/destroy stream. Half the
// events land on 64 hot pages, so registrations collide, copies are
// invalidated twice and destroyed twice and relocations find their
// source; the rest spread over page ids up to 2²⁰. Timestamps wander
// backwards now and then (the negative-span clamps) and the issue time
// of a destruction may precede the window it closes.
func randomScript(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	page := func() uint32 {
		switch r := rng.Intn(10); {
		case r < 5:
			return uint32(rng.Intn(64))
		case r < 9:
			return uint32(rng.Intn(4096))
		default:
			return uint32(rng.Intn(1<<20 + 1))
		}
	}
	evs := make([]Event, n)
	var now sim.Micros
	for i := range evs {
		now += sim.Micros(rng.Intn(50))
		at := now - sim.Micros(rng.Intn(4)/3*rng.Intn(200))
		ev := Event{Page: page(), Src: NoSrc, LPA: -1, At: at}
		switch r := rng.Intn(10); {
		case r < 3:
			ev.Kind, ev.Origin, ev.LPA = KindCopy, Origin(rng.Intn(int(OriginQuarantine)+1)), int64(rng.Intn(1000))
			if rng.Intn(4) > 0 {
				ev.Src = page()
			}
		case r < 6:
			ev.Kind = KindInvalidate
		default:
			ev.Kind, ev.Cause = KindDestroy, Cause(rng.Intn(NumCauses))
			ev.Dep, ev.Ladder = at-sim.Micros(rng.Intn(300)), rng.Intn(20) == 0
		}
		evs[i] = ev
	}
	return evs
}

// refLedger is the part of the ledger's bookkeeping that depends on how
// copies and secrets are stored, kept on plain maps.
type refLedger struct {
	secretOf map[uint32]int        // registered copy -> its secret
	openAt   map[uint32]sim.Micros // stale copy -> first invalidation
	exposed  map[int]int           // secret -> stale copies, absent when none

	secrets, windows      int
	registered, destroyed uint64
	tInsec                []float64
}

func (r *refLedger) apply(ev Event) {
	switch ev.Kind {
	case KindCopy:
		r.destroy(ev.Page, ev.At) // a collision retires a stale entry, overwrites a live one
		sec, ok := r.secretOf[ev.Src]
		if !ok || (ev.Origin != OriginGC && ev.Origin != OriginEvacuate) {
			sec = r.secrets
			r.secrets++
		}
		r.secretOf[ev.Page] = sec
		r.registered++
	case KindInvalidate:
		if _, ok := r.secretOf[ev.Page]; !ok {
			r.secretOf[ev.Page] = r.secrets
			r.secrets++
			r.registered++
		}
		if _, stale := r.openAt[ev.Page]; !stale {
			r.openAt[ev.Page] = ev.At
			r.exposed[r.secretOf[ev.Page]]++
		}
	case KindDestroy:
		r.destroy(ev.Page, ev.At)
	}
}

func (r *refLedger) destroy(page uint32, at sim.Micros) {
	opened, stale := r.openAt[page]
	if !stale {
		return
	}
	r.tInsec = append(r.tInsec, math.Max(0, float64(at-opened)))
	sec := r.secretOf[page]
	if r.exposed[sec]--; r.exposed[sec] == 0 {
		delete(r.exposed, sec)
		r.windows++
	}
	delete(r.openAt, page)
	delete(r.secretOf, page)
	r.destroyed++
}

// check compares everything the reference models with the ledger's
// Stats and Verify at the given horizon. Stats reports the incrementally
// maintained open-secret count and Verify walks every secret, so the two
// are also checked against each other here.
func (r *refLedger) check(t *testing.T, l *Ledger, horizon sim.Micros) {
	t.Helper()
	var oldest int64
	open := []OpenCopy{}
	for page, at := range r.openAt {
		oldest = max(oldest, int64(horizon-at))
		open = append(open, OpenCopy{Page: page, OpenedUs: int64(at)})
	}
	sort.Slice(open, func(i, j int) bool { return open[i].Page < open[j].Page })

	st, rep := l.Stats(horizon), l.Verify(horizon)
	want := Stats{
		Secrets: r.secrets, OpenSecrets: len(r.exposed), ExposedCopies: len(r.openAt),
		LiveCopies:       int(r.registered-r.destroyed) - len(r.openAt),
		CopiesRegistered: r.registered, CopiesDestroyed: r.destroyed,
		Windows: uint64(r.windows), OldestOpenUs: oldest,
	}
	got := Stats{
		Secrets: st.Secrets, OpenSecrets: st.OpenSecrets, ExposedCopies: st.ExposedCopies,
		LiveCopies:       st.LiveCopies,
		CopiesRegistered: st.CopiesRegistered, CopiesDestroyed: st.CopiesDestroyed,
		Windows: st.Windows, OldestOpenUs: st.OldestOpenUs,
	}
	if got != want {
		t.Fatalf("Stats(%d):\n got %+v\nwant %+v", horizon, got, want)
	}
	if rep.Secrets != want.Secrets || rep.OpenSecrets != want.OpenSecrets ||
		rep.ExposedCopies != want.ExposedCopies || rep.OldestOpenUs != oldest || rep.PhaseSumErrors != 0 {
		t.Fatalf("Verify(%d) = %+v, want the counts of %+v and no phase-sum errors", horizon, rep, want)
	}
	gotOpen := []OpenCopy{}
	for _, o := range rep.Open {
		gotOpen = append(gotOpen, OpenCopy{Page: o.Page, OpenedUs: o.OpenedUs})
	}
	if !reflect.DeepEqual(gotOpen, open) {
		t.Fatalf("Verify(%d): %d open copies differ from the reference's %d", horizon, len(gotOpen), len(open))
	}
	if st.Phases.sum() != st.WindowSumUs {
		t.Fatalf("phase sum %d != window sum %d", st.Phases.sum(), st.WindowSumUs)
	}
}

// TestLedgerDifferential drives seeded random scripts through the ledger
// and the map-based reference, comparing them every few thousand events,
// and then compares a SHA-256 over the final Stats, Verify report and
// both window samples with what the map-keyed ledger of commit 39e5f0d
// produced for the same script (the fields the reference does not model:
// phases, reopened and ladder windows, per-cause and per-origin counts).
func TestLedgerDifferential(t *testing.T) {
	scripts := []struct {
		seed   int64
		events int
	}{{1, 200_000}, {2, 60_000}}
	name := func(seed int64) string { return fmt.Sprintf("seed%d", seed) }
	var names []string
	for _, tc := range scripts {
		names = append(names, name(tc.seed))
	}
	pins := pintest.Group(t, "audit", names...)
	for _, tc := range scripts {
		l := NewLedger()
		ref := &refLedger{secretOf: map[uint32]int{}, openAt: map[uint32]sim.Micros{}, exposed: map[int]int{}}
		var horizon sim.Micros
		for i, ev := range randomScript(tc.seed, tc.events) {
			l.Record(ev)
			ref.apply(ev)
			horizon = max(horizon, ev.At)
			if i%4999 == 0 {
				ref.check(t, l, horizon)
			}
		}
		ref.check(t, l, horizon)
		if got := l.TInsec().Sorted(); !reflect.DeepEqual(got, sortedCopy(ref.tInsec)) {
			t.Fatalf("seed %d: T_insecure sample differs from the reference (%d vs %d windows)", tc.seed, len(got), len(ref.tInsec))
		}

		h := sha256.New()
		enc := json.NewEncoder(h)
		if err := enc.Encode(l.Stats(horizon)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(l.Verify(horizon)); err != nil {
			t.Fatal(err)
		}
		for _, xs := range [][]float64{l.TInsec().Sorted(), l.Windows().Sorted()} {
			if err := binary.Write(h, binary.LittleEndian, xs); err != nil {
				t.Fatal(err)
			}
		}
		pins.Check(t, name(tc.seed), hex.EncodeToString(h.Sum(nil)))
	}
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64{}, xs...)
	sort.Float64s(out)
	return out
}
