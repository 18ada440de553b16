package sanitize_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/nand"
	"repro/internal/sanitize"
)

type rig struct {
	f     *ftl.FTL
	tgt   *ftltest.CountingTarget
	chips []*nand.Chip
}

func newRig(t testing.TB, policy ftl.Policy) *rig {
	geo := ftltest.SmallGeometry()
	tgt := ftltest.New(geo)
	chips := ftltest.BuildChips(t, geo)
	tgt.WithChips(chips)
	f, err := ftl.New(ftltest.SmallConfig(), tgt, policy)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{f: f, tgt: tgt, chips: chips}
}

func (r *rig) submit(t testing.TB, req blockio.Request) {
	if _, err := r.f.Submit(req, 0); err != nil {
		t.Fatal(err)
	}
}

// staleSecuredExposure scans all physical pages: it returns how many
// stale (non-live, non-free per the chip) pages still hold readable data
// on the raw chips. This is the attacker's view — condition C1/C2 demand
// zero for secured data.
func (r *rig) readablePages(t testing.TB) map[ftl.PPA]bool {
	readable := map[ftl.PPA]bool{}
	g := r.f.Geometry()
	for p := 0; p < g.TotalPages(); p++ {
		chip := g.ChipOf(ftl.PPA(p))
		addr := nand.PageAddr{Block: g.BlockInChip(g.BlockOf(ftl.PPA(p))), Page: g.PageInBlock(ftl.PPA(p))}
		res, err := r.chips[chip].Read(addr, 0)
		if err != nil {
			continue // locked or failed: not readable
		}
		nonZero := false
		for _, b := range res {
			if b != 0 {
				nonZero = true
				break
			}
		}
		if nonZero {
			readable[ftl.PPA(p)] = true
		}
	}
	return readable
}

// assertNoStaleSecuredData verifies the sanitization contract: every
// readable raw page must be live in the FTL (i.e., no stale copy of
// secured data survives).
func assertNoStaleSecuredData(t testing.TB, r *rig) {
	t.Helper()
	for p := range r.readablePages(t) {
		if !r.f.Status(p).Live() {
			t.Fatalf("stale physical page %d (status %v) is still readable on the raw chip", p, r.f.Status(p))
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]ftl.Policy{
		"baseline":       sanitize.Baseline(),
		"erSSD":          sanitize.ErSSD(),
		"scrSSD":         sanitize.ScrSSD(),
		"secSSD_nobLock": sanitize.SecSSDNoBLock(),
		"secSSD":         sanitize.SecSSD(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

// Baseline leaves stale data readable — the §3 data versioning problem.
func TestBaselineLeavesStaleData(t *testing.T) {
	r := newRig(t, sanitize.Baseline())
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1})
	old := r.f.Lookup(0)
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1}) // overwrite
	if r.f.Status(old) != ftl.PageInvalid {
		t.Fatal("old copy should be invalid")
	}
	if !r.readablePages(t)[old] {
		t.Fatal("baseline should leave the stale copy readable (that's the vulnerability)")
	}
}

// Each sanitizing policy upholds C2: after overwriting a secured page,
// the old copy is unreadable at the chip level.
func TestSanitizersDestroyOverwrittenData(t *testing.T) {
	for _, mk := range []func() ftl.Policy{sanitize.ErSSD, sanitize.ScrSSD, sanitize.SecSSDNoBLock, sanitize.SecSSD} {
		policy := mk()
		t.Run(policy.Name(), func(t *testing.T) {
			r := newRig(t, policy)
			r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1})
			r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1})
			assertNoStaleSecuredData(t, r)
		})
	}
}

// ... and C1: after deleting (trimming) a secured file, nothing remains.
func TestSanitizersDestroyTrimmedData(t *testing.T) {
	for _, mk := range []func() ftl.Policy{sanitize.ErSSD, sanitize.ScrSSD, sanitize.SecSSDNoBLock, sanitize.SecSSD} {
		policy := mk()
		t.Run(policy.Name(), func(t *testing.T) {
			r := newRig(t, policy)
			r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 6})
			r.submit(t, blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 6})
			assertNoStaleSecuredData(t, r)
		})
	}
}

// Insecure (O_INSEC) data is exempt: sanitizers leave it alone, which is
// the selective-sanitization performance lever of §6.
func TestInsecureDataNotSanitized(t *testing.T) {
	r := newRig(t, sanitize.SecSSD())
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1, Insecure: true})
	old := r.f.Lookup(0)
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1, Insecure: true})
	if r.tgt.PLocks != 0 || r.tgt.BLocks != 0 {
		t.Fatal("insecure invalidation must not issue lock commands")
	}
	if !r.readablePages(t)[old] {
		t.Fatal("insecure stale copy should still be readable (no sanitization requested)")
	}
}

func TestErSSDErasesImmediately(t *testing.T) {
	r := newRig(t, sanitize.ErSSD())
	// Fill a few pages, putting live neighbours in the same block.
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 8})
	erasesBefore := r.tgt.Erases
	copiesBefore := r.f.Stats().SanitizeCopies
	r.submit(t, blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 1})
	if r.tgt.Erases == erasesBefore {
		t.Fatal("erSSD must erase the block containing the secured page")
	}
	if r.f.Stats().SanitizeCopies == copiesBefore {
		t.Fatal("erSSD must relocate the live pages before erasing")
	}
	assertNoStaleSecuredData(t, r)
}

func TestScrSSDRelocatesWLSiblings(t *testing.T) {
	r := newRig(t, sanitize.ScrSSD())
	// Three pages land on WL0 of two chips; trim one page.
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 6})
	r.submit(t, blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 1})
	if r.tgt.Scrubs == 0 {
		t.Fatal("scrSSD must scrub the trimmed page")
	}
	// TLC wordline: up to two live siblings must have moved.
	if r.f.Stats().SanitizeCopies == 0 {
		t.Fatal("scrSSD must relocate live wordline siblings")
	}
	assertNoStaleSecuredData(t, r)
}

func TestSecSSDUsesPLockWithoutCopies(t *testing.T) {
	r := newRig(t, sanitize.SecSSD())
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 6})
	progBefore := r.f.Stats().FlashPrograms
	r.submit(t, blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 1})
	if r.tgt.PLocks != 1 {
		t.Fatalf("pLocks = %d, want 1", r.tgt.PLocks)
	}
	if r.f.Stats().FlashPrograms != progBefore {
		t.Fatal("Evanesco sanitization must be zero-copy")
	}
	assertNoStaleSecuredData(t, r)
}

// The §6 bLock decision rule: a trim that stales an entire block with
// more than tbLock/tpLock (=3) secured pages should produce one bLock
// instead of N pLocks.
func TestSecSSDBatchesIntoBLock(t *testing.T) {
	r := newRig(t, sanitize.SecSSD())
	// SmallGeometry: 12 pages per block, striped over 2 chips. Write 24
	// sequential pages: each chip's first block fills completely.
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 24})
	// Trim everything: both blocks become fully stale with 12 secured
	// pages each -> 12*100µs > 300µs -> bLock.
	r.submit(t, blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 24})
	if r.tgt.BLocks == 0 {
		t.Fatal("expected bLock for a fully-stale block")
	}
	if r.tgt.PLocks != 0 {
		t.Fatalf("pLocks = %d; the whole batch should be covered by bLocks", r.tgt.PLocks)
	}
	assertNoStaleSecuredData(t, r)
}

func TestSecSSDNoBLockNeverUsesBLock(t *testing.T) {
	r := newRig(t, sanitize.SecSSDNoBLock())
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 24})
	r.submit(t, blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 24})
	if r.tgt.BLocks != 0 {
		t.Fatal("secSSD_nobLock must not use bLock")
	}
	if r.tgt.PLocks != 24 {
		t.Fatalf("pLocks = %d, want 24", r.tgt.PLocks)
	}
	assertNoStaleSecuredData(t, r)
}

// A partially-stale block must never be bLocked even when many secured
// pages are pending (live data would be destroyed).
func TestSecSSDBLockRequiresFullyStaleBlock(t *testing.T) {
	r := newRig(t, sanitize.SecSSD())
	r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 24})
	// Trim all but the last page of each chip's block: blocks keep one
	// live page.
	r.submit(t, blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 22})
	if r.tgt.BLocks != 0 {
		t.Fatal("bLock on a block with live data")
	}
	if r.tgt.PLocks != 22 {
		t.Fatalf("pLocks = %d, want 22", r.tgt.PLocks)
	}
	// The live pages must still be readable through the FTL.
	for _, lpa := range []int64{22, 23} {
		if r.f.Lookup(lpa) == ftl.NoPPA {
			t.Fatal("live page lost")
		}
	}
	assertNoStaleSecuredData(t, r)
}

// Cost comparison on the same workload: the headline claim of the paper.
// Evanesco must be copy-free and erase-free relative to erSSD/scrSSD.
func TestRelativeCostOrdering(t *testing.T) {
	workload := func(r *rig) {
		rng := rand.New(rand.NewSource(7))
		logical := int64(r.f.LogicalPages())
		for i := 0; i < 300; i++ {
			lpa := rng.Int63n(logical)
			r.submit(t, blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
		}
	}
	wafOf := func(mk func() ftl.Policy) (float64, uint64) {
		r := newRig(t, mk())
		workload(r)
		st := r.f.Stats()
		return float64(st.FlashPrograms) / float64(st.HostWrittenPages), r.tgt.Erases
	}
	wafBase, erBase := wafOf(sanitize.Baseline)
	wafSec, erSec := wafOf(sanitize.SecSSD)
	wafScr, erScr := wafOf(sanitize.ScrSSD)
	wafEr, erEr := wafOf(sanitize.ErSSD)

	if wafSec > wafBase*1.05 {
		t.Errorf("secSSD WAF %.2f should be within ~5%% of baseline %.2f", wafSec, wafBase)
	}
	if wafScr <= wafSec {
		t.Errorf("scrSSD WAF %.2f should exceed secSSD %.2f", wafScr, wafSec)
	}
	if wafEr <= wafScr {
		t.Errorf("erSSD WAF %.2f should exceed scrSSD %.2f", wafEr, wafScr)
	}
	if erEr <= erScr || erEr <= erSec || erEr <= erBase {
		t.Errorf("erSSD erases %d should dominate (scr %d, sec %d, base %d)", erEr, erScr, erSec, erBase)
	}
}

// Property: under any random secure workload, secSSD never leaves stale
// secured data readable, never bLocks a block with live pages, and keeps
// all live data intact.
func TestSecSSDSecurityInvariantProperty(t *testing.T) {
	fn := func(seed int64) bool {
		r := newRig(t, sanitize.SecSSD())
		rng := rand.New(rand.NewSource(seed))
		logical := int64(r.f.LogicalPages())
		content := map[int64]bool{}
		for i := 0; i < 200; i++ {
			lpa := rng.Int63n(logical)
			switch rng.Intn(3) {
			case 0:
				if _, err := r.f.Submit(blockio.Request{Op: blockio.OpTrim, LPA: lpa, Pages: 1}, 0); err != nil {
					return false
				}
				delete(content, lpa)
			default:
				if _, err := r.f.Submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1}, 0); err != nil {
					return false
				}
				content[lpa] = true
			}
		}
		// Invariant 1: no stale data readable anywhere (all writes secured).
		for p := range r.readablePages(t) {
			if !r.f.Status(p).Live() {
				return false
			}
		}
		// Invariant 2: every live mapping is still readable on-chip.
		g := r.f.Geometry()
		for lpa := range content {
			p := r.f.Lookup(lpa)
			if p == ftl.NoPPA {
				return false
			}
			chip := g.ChipOf(p)
			addr := nand.PageAddr{Block: g.BlockInChip(g.BlockOf(p)), Page: g.PageInBlock(p)}
			if _, err := r.chips[chip].Read(addr, 0); err != nil {
				if errors.Is(err, nand.ErrPageLocked) || errors.Is(err, nand.ErrBlockLocked) {
					return false // locked live data: catastrophic bug
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
