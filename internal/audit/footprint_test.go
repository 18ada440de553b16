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

func TestCopyStateSizeof(t *testing.T) {
	if got := unsafe.Sizeof(copyState{}); got != 16 {
		t.Fatalf("copyState is %d bytes, want 16", got)
	}
}

// TestLedgerFootprint churns secrets through a small device: host
// programs, GC relocations (the source goes stale as its copy lands),
// invalidations and destructions on random pages, until ten times more
// secrets were created than the device has pages. A reference on maps
// tracks which secrets are alive and which windows are reopenings. The
// ledger must retain no more secret slots than were ever alive at once,
// must not count a reused slot's first window as reopened, and must
// still count every secret created.
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
	created, peak, reopened := 0, 0, 0
	var now sim.Micros

	invalidate := func(page uint32) {
		l.Record(Event{Kind: KindInvalidate, Page: page, At: now})
		stale[page] = true
		sec := secretOf[page]
		if exposed[sec]++; exposed[sec] == 1 {
			reopen[sec] = closed[sec]
		}
	}
	destroy := func(page uint32) {
		l.Record(Event{Kind: KindDestroy, Page: page, Cause: CausePLock, Dep: now, At: now})
		sec := secretOf[page]
		delete(secretOf, page)
		delete(stale, page)
		if exposed[sec]--; exposed[sec] == 0 {
			closed[sec] = true
			if reopen[sec] {
				reopened++
			}
		}
		if copies[sec]--; copies[sec] == 0 {
			delete(copies, sec)
			delete(exposed, sec)
			delete(closed, sec)
			delete(reopen, sec)
		}
	}

	for created < 10*pages {
		now += sim.Micros(1 + rng.Intn(20))
		page := uint32(rng.Intn(pages))
		if _, registered := secretOf[page]; registered {
			if stale[page] {
				destroy(page)
			} else {
				invalidate(page)
			}
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
			continue
		}
		l.Record(Event{Kind: KindCopy, Page: page, Src: NoSrc, LPA: int64(page), Origin: OriginHost, At: now})
		secretOf[page] = created
		copies[created]++
		created++
		peak = max(peak, len(copies))
	}

	if l.secrets.Len() > peak {
		t.Errorf("%d secret slots retained, but at most %d secrets were alive at once", l.secrets.Len(), peak)
	}
	if l.copies.Len() > pages {
		t.Errorf("copy index covers %d pages, the device has %d", l.copies.Len(), pages)
	}
	st, rep := l.Stats(now), l.Verify(now)
	if st.Secrets != created || rep.Secrets != created {
		t.Errorf("Stats.Secrets = %d, Verify.Secrets = %d, want every secret created: %d", st.Secrets, rep.Secrets, created)
	}
	if st.ReopenedWindows != uint64(reopened) {
		t.Errorf("%d reopened windows, want %d: a reused slot's first window is not a reopening", st.ReopenedWindows, reopened)
	}
	if reopened == 0 || st.Windows <= uint64(reopened) {
		t.Fatalf("the script closed %d windows, %d reopened: it exercises neither case", st.Windows, reopened)
	}
	if rep.PhaseSumErrors != 0 || st.Phases.sum() != st.WindowSumUs {
		t.Errorf("phase attribution off: %d errors, %d µs of phases for %d µs of windows",
			rep.PhaseSumErrors, st.Phases.sum(), st.WindowSumUs)
	}
}
