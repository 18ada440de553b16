package audit

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func TestSecretSizeof(t *testing.T) {
	if got := unsafe.Sizeof(secret{}); got != 32 {
		t.Fatalf("secret is %d bytes, want 32", got)
	}
}

// TestCopyStateSizeof holds a physical page's entry, the ledger's one
// per-page cost, to 8 bytes.
func TestCopyStateSizeof(t *testing.T) {
	if got := unsafe.Sizeof(entry(0)); got > 8 {
		t.Fatalf("a page entry is %d bytes, want at most 8", got)
	}
}

// TestLedgerFootprint churns secrets through a small device: host
// programs, GC relocations (the source goes stale as its copy lands),
// invalidations and destructions on random pages, and now and then a
// program over a live copy (a producer that skipped its destruction),
// some of them relocations of the page onto itself, until ten times more
// secrets were created than the device has pages. A reference on maps
// tracks which secrets are alive, how many copies each has and which
// windows are reopenings. The ledger must hold a slot only for a secret
// with two or more copies or an exposed copy, so its slot table never
// exceeds the peak count of those; its page index must cover no more
// pages than the device has; it must not count a reused slot's first
// window as reopened; and it must still count every secret created.
func TestLedgerFootprint(t *testing.T) {
	const pages = 256
	rng := rand.New(rand.NewSource(5))
	l := NewLedger()

	secretOf := map[uint32]int{} // registered page -> reference secret
	stale := map[uint32]bool{}
	copies := map[int]int{}  // reference secret -> registered copies
	exposed := map[int]int{} // reference secret -> stale copies
	closed := map[int]bool{} // reference secret -> a window has closed
	reopen := map[int]bool{} // reference secret -> its open window is a reopening
	created, peak, reopened, overwritten := 0, 0, 0, 0
	var now sim.Micros

	invalidate := func(page uint32) {
		l.Record(Event{Kind: KindInvalidate, Page: page, At: now})
		stale[page] = true
		sec := secretOf[page]
		if exposed[sec]++; exposed[sec] == 1 {
			reopen[sec] = closed[sec]
		}
	}
	// leave takes a registered page's copy out of its secret.
	leave := func(page uint32) {
		sec := secretOf[page]
		delete(secretOf, page)
		if copies[sec]--; copies[sec] == 0 {
			delete(copies, sec)
			delete(exposed, sec)
			delete(closed, sec)
			delete(reopen, sec)
		}
	}
	destroy := func(page uint32) {
		l.Record(Event{Kind: KindDestroy, Page: page, Cause: CausePLock, Dep: now, At: now})
		sec := secretOf[page]
		delete(stale, page)
		if exposed[sec]--; exposed[sec] == 0 {
			closed[sec] = true
			if reopen[sec] {
				reopened++
			}
		}
		leave(page)
	}

	// slotted counts the secrets that need a slot.
	slotted := func() (n int) {
		for sec, k := range copies {
			if k >= 2 || exposed[sec] > 0 {
				n++
			}
		}
		return n
	}

	for created < 10*pages {
		now += sim.Micros(1 + rng.Intn(20))
		page := uint32(rng.Intn(pages))
		if _, registered := secretOf[page]; registered {
			switch {
			case stale[page]:
				destroy(page)
			case rng.Intn(8) > 0:
				invalidate(page)
			case rng.Intn(2) == 0:
				// A relocation of the live copy onto its own page keeps it
				// in its secret.
				l.Record(Event{Kind: KindCopy, Page: page, Src: page, LPA: int64(page), Origin: OriginGC, At: now})
				overwritten++
			default:
				// A host program over the live copy takes it out of its
				// secret and makes a new one.
				leave(page)
				l.Record(Event{Kind: KindCopy, Page: page, Src: NoSrc, LPA: int64(page), Origin: OriginHost, At: now})
				secretOf[page] = created
				copies[created]++
				created++
				overwritten++
			}
			peak = max(peak, slotted())
			continue
		}
		// Program the page: now and then a GC relocation of a live copy,
		// whose source goes stale as the copy lands; otherwise a new secret.
		src := uint32(rng.Intn(pages))
		if sec, ok := secretOf[src]; ok && !stale[src] && rng.Intn(3) == 0 {
			l.Record(Event{Kind: KindCopy, Page: page, Src: src, LPA: int64(src), Origin: OriginGC, At: now})
			secretOf[page] = sec
			copies[sec]++
			invalidate(src)
		} else {
			l.Record(Event{Kind: KindCopy, Page: page, Src: NoSrc, LPA: int64(page), Origin: OriginHost, At: now})
			secretOf[page] = created
			copies[created]++
			created++
		}
		peak = max(peak, slotted())
	}

	if n := l.slots.items.Len(); n > peak {
		t.Errorf("%d slots retained, but at most %d secrets had two or more copies or an exposed one at once", n, peak)
	}
	if l.pages.Len() > pages {
		t.Errorf("page index covers %d pages, the device has %d", l.pages.Len(), pages)
	}
	st, rep := l.Stats(now), l.Verify(now)
	if st.Secrets != created || rep.Secrets != created {
		t.Errorf("Stats.Secrets = %d, Verify.Secrets = %d, want every secret created: %d", st.Secrets, rep.Secrets, created)
	}
	if st.ReopenedWindows != uint64(reopened) {
		t.Errorf("%d reopened windows, want %d: a reused slot's first window is not a reopening", st.ReopenedWindows, reopened)
	}
	if reopened == 0 || st.Windows <= uint64(reopened) || overwritten == 0 {
		t.Fatalf("the script closed %d windows, %d reopened, and overwrote %d live copies: it exercises too little",
			st.Windows, reopened, overwritten)
	}
	if rep.PhaseSumErrors != 0 || st.Phases.sum() != st.WindowSumUs {
		t.Errorf("phase attribution off: %d errors, %d µs of phases for %d µs of windows",
			rep.PhaseSumErrors, st.Phases.sum(), st.WindowSumUs)
	}
}
