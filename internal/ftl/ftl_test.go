package ftl_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/audit"
	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/sanitize"
)

func newFTL(t *testing.T, policy ftl.Policy) (*ftl.FTL, *ftltest.CountingTarget) {
	t.Helper()
	tgt := ftltest.New(ftltest.SmallGeometry())
	f, err := ftl.New(ftltest.SmallConfig(), tgt, policy)
	if err != nil {
		t.Fatal(err)
	}
	return f, tgt
}

func write(t *testing.T, f *ftl.FTL, lpa int64, pages int32, insecure bool) {
	t.Helper()
	_, err := f.Submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: pages, Insecure: insecure}, 0)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeometryHelpers(t *testing.T) {
	g := ftltest.SmallGeometry()
	p := g.PPAOf(1, 2, 5)
	if g.ChipOf(p) != 1 {
		t.Fatalf("ChipOf = %d", g.ChipOf(p))
	}
	if g.BlockOf(p) != 1*8+2 {
		t.Fatalf("BlockOf = %d", g.BlockOf(p))
	}
	if g.BlockInChip(g.BlockOf(p)) != 2 {
		t.Fatal("BlockInChip wrong")
	}
	if g.PageInBlock(p) != 5 {
		t.Fatalf("PageInBlock = %d", g.PageInBlock(p))
	}
	// Page 5 is the last slot of WL1 (pages 3,4,5).
	wl := g.WLStart(p)
	if g.PageInBlock(wl) != 3 || g.WLSlot(p) != 2 || g.BlockOf(wl) != g.BlockOf(p) {
		t.Fatalf("WLStart = page %d of block %d, slot %d", g.PageInBlock(wl), g.BlockOf(wl), g.WLSlot(p))
	}
	if chip, block, page := g.Locate(p); chip != 1 || block != 2 || page != 5 {
		t.Fatalf("Locate = (%d, %d, %d)", chip, block, page)
	}
}

func TestConfigValidation(t *testing.T) {
	good := ftltest.SmallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	noOP := good
	noOP.LogicalPages = good.Geometry.TotalPages()
	if err := noOP.Validate(); err == nil {
		t.Fatal("config without over-provisioning accepted")
	}
	badGC := good
	badGC.GCFreeBlocksLow = 0
	if err := badGC.Validate(); err == nil {
		t.Fatal("GCFreeBlocksLow=0 accepted")
	}
	if _, err := ftl.New(badGC, ftltest.New(good.Geometry), sanitize.Baseline()); err == nil {
		t.Fatal("New accepted bad config")
	}
	if _, err := ftl.New(good, nil, sanitize.Baseline()); err == nil {
		t.Fatal("New accepted nil target")
	}
}

func TestWriteMapsAndReadsBack(t *testing.T) {
	f, tgt := newFTL(t, sanitize.Baseline())
	write(t, f, 3, 2, false)
	if f.Lookup(3) == ftl.NoPPA || f.Lookup(4) == ftl.NoPPA {
		t.Fatal("written pages unmapped")
	}
	if f.Status(f.Lookup(3)) != ftl.PageSecured {
		t.Fatal("default write should be secured (backward-compatible security)")
	}
	done, err := f.Submit(blockio.Request{Op: blockio.OpRead, LPA: 3, Pages: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Reads != 2 {
		t.Fatalf("FlashReads = %d, want 2", tgt.Reads)
	}
	if done <= 0 {
		t.Fatal("read must take time")
	}
	st := f.Stats()
	if st.HostReadPages != 2 || st.HostWrittenPages != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInsecureWriteIsValidNotSecured(t *testing.T) {
	f, _ := newFTL(t, sanitize.Baseline())
	write(t, f, 0, 1, true)
	if f.Status(f.Lookup(0)) != ftl.PageValid {
		t.Fatal("O_INSEC write should be valid, not secured")
	}
}

func TestReadOfUnmappedPageTouchesNoFlash(t *testing.T) {
	f, tgt := newFTL(t, sanitize.Baseline())
	if _, err := f.Submit(blockio.Request{Op: blockio.OpRead, LPA: 0, Pages: 4}, 0); err != nil {
		t.Fatal(err)
	}
	if tgt.Reads != 0 {
		t.Fatal("unmapped read reached flash")
	}
}

func TestRequestBeyondCapacityRejected(t *testing.T) {
	f, _ := newFTL(t, sanitize.Baseline())
	req := blockio.Request{Op: blockio.OpWrite, LPA: int64(f.LogicalPages()) - 1, Pages: 2}
	if _, err := f.Submit(req, 0); err == nil {
		t.Fatal("overflow write accepted")
	}
	if _, err := f.Submit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 0}, 0); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestOverwriteInvalidatesOldCopy(t *testing.T) {
	f, _ := newFTL(t, sanitize.Baseline())
	write(t, f, 0, 1, true)
	old := f.Lookup(0)
	write(t, f, 0, 1, true)
	if f.Lookup(0) == old {
		t.Fatal("overwrite must use a new physical page (append-only FTL)")
	}
	if f.Status(old) != ftl.PageInvalid {
		t.Fatalf("old copy status %v, want invalid", f.Status(old))
	}
}

func TestTrimUnmapsAndInvalidates(t *testing.T) {
	f, _ := newFTL(t, sanitize.Baseline())
	write(t, f, 5, 3, true)
	old := f.Lookup(5)
	if _, err := f.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 5, Pages: 3}, 0); err != nil {
		t.Fatal(err)
	}
	if f.Lookup(5) != ftl.NoPPA {
		t.Fatal("trim must unmap")
	}
	if f.Status(old) != ftl.PageInvalid {
		t.Fatal("trim must invalidate the physical page")
	}
	if f.Stats().HostTrimmedPages != 3 {
		t.Fatal("trim accounting wrong")
	}
}

func TestTrimOfUnmappedIsNoop(t *testing.T) {
	f, _ := newFTL(t, sanitize.Baseline())
	if _, err := f.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 10}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestWritesStripeAcrossChips(t *testing.T) {
	f, _ := newFTL(t, sanitize.Baseline())
	write(t, f, 0, 8, true)
	chips := map[int]int{}
	g := f.Geometry()
	for lpa := int64(0); lpa < 8; lpa++ {
		chips[g.ChipOf(f.Lookup(lpa))]++
	}
	if len(chips) != 2 {
		t.Fatalf("writes used %d chips, want 2 (striping)", len(chips))
	}
}

// Fill the device past its logical capacity several times over: GC must
// reclaim space and the FTL must never fail or lose mappings.
func TestGCReclaimsUnderSteadyState(t *testing.T) {
	f, tgt := newFTL(t, sanitize.Baseline())
	logical := int64(f.LogicalPages())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < int(logical)*6; i++ {
		lpa := rng.Int63n(logical)
		write(t, f, lpa, 1, true)
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never ran despite 6x overwrite")
	}
	if tgt.Erases == 0 {
		t.Fatal("no blocks were erased")
	}
	if st.WAF() <= 1.0 {
		t.Fatalf("WAF = %.3f, must exceed 1 once GC copies pages", st.WAF())
	}
	if st.WAF() > 3.0 {
		t.Fatalf("WAF = %.3f suspiciously high for 50%% utilization", st.WAF())
	}
	// Every logical page that was written still resolves.
	seen := map[ftl.PPA]bool{}
	for lpa := int64(0); lpa < logical; lpa++ {
		p := f.Lookup(lpa)
		if p == ftl.NoPPA {
			continue
		}
		if seen[p] {
			t.Fatalf("two logical pages map to physical page %d", p)
		}
		seen[p] = true
		if !f.Status(p).Live() {
			t.Fatalf("mapped page %d has status %v", p, f.Status(p))
		}
	}
}

func TestLazyEraseDefersUntilReuse(t *testing.T) {
	f, tgt := newFTL(t, sanitize.Baseline())
	logical := int64(f.LogicalPages())
	// One full overwrite pass fills blocks; a second forces GC.
	for pass := 0; pass < 2; pass++ {
		for lpa := int64(0); lpa < logical; lpa++ {
			write(t, f, lpa, 1, true)
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("expected GC activity")
	}
	// Lazy erase: erases happen only when a pending block is reopened, so
	// erases <= GC runs (a few pending blocks may still await erase).
	if tgt.Erases > st.GCRuns {
		t.Fatalf("erases (%d) exceeded GC runs (%d) under lazy erase", tgt.Erases, st.GCRuns)
	}
}

// The FTL must uphold flash discipline (erase-before-program, in-order
// pages) — verified by mirroring every command onto real chip models,
// which panic on violations.
func TestFTLRespectsFlashDisciplineOnRealChips(t *testing.T) {
	f, _ := newFTLWithChips(t, sanitize.SecSSD())
	logical := int64(f.LogicalPages())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < int(logical)*5; i++ {
		op := rng.Intn(10)
		lpa := rng.Int63n(logical)
		var req blockio.Request
		switch {
		case op < 6:
			req = blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1, Insecure: op%2 == 0}
		case op < 8:
			req = blockio.Request{Op: blockio.OpRead, LPA: lpa, Pages: 1}
		default:
			req = blockio.Request{Op: blockio.OpTrim, LPA: lpa, Pages: 1}
		}
		if _, err := f.Submit(req, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func newFTLWithChips(t *testing.T, policy ftl.Policy) (*ftl.FTL, *ftltest.CountingTarget) {
	t.Helper()
	geo := ftltest.SmallGeometry()
	tgt := ftltest.New(geo)
	chips := ftltest.BuildChips(t, geo)
	tgt.WithChips(chips)
	f, err := ftl.New(ftltest.SmallConfig(), tgt, policy)
	if err != nil {
		t.Fatal(err)
	}
	return f, tgt
}

func TestStatsWAF(t *testing.T) {
	var s ftl.Stats
	if s.WAF() != 0 {
		t.Fatal("WAF before writes should be 0")
	}
	s.HostWrittenPages = 10
	s.FlashPrograms = 25
	if s.WAF() != 2.5 {
		t.Fatalf("WAF = %v", s.WAF())
	}
}

func TestPageStatusStrings(t *testing.T) {
	for st, want := range map[ftl.PageStatus]string{
		ftl.PageFree:    "free",
		ftl.PageValid:   "valid",
		ftl.PageSecured: "secured",
		ftl.PageInvalid: "invalid",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if !strings.Contains(ftl.PageStatus(9).String(), "9") {
		t.Error("unknown status should print its value")
	}
}

// Property: after any random workload, the per-block live counts derived
// from the status table equal the number of mapped logical pages, and no
// two logical pages share a physical page.
func TestMappingConsistencyProperty(t *testing.T) {
	fn := func(seed int64, opsRaw []uint16) bool {
		tgt := ftltest.New(ftltest.SmallGeometry())
		f, err := ftl.New(ftltest.SmallConfig(), tgt, sanitize.SecSSD())
		if err != nil {
			return false
		}
		logical := int64(f.LogicalPages())
		rng := rand.New(rand.NewSource(seed))
		for range opsRaw {
			lpa := rng.Int63n(logical)
			var req blockio.Request
			switch rng.Intn(4) {
			case 0:
				req = blockio.Request{Op: blockio.OpTrim, LPA: lpa, Pages: 1}
			case 1:
				req = blockio.Request{Op: blockio.OpRead, LPA: lpa, Pages: 1}
			default:
				req = blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1, Insecure: rng.Intn(2) == 0}
			}
			if _, err := f.Submit(req, 0); err != nil {
				return false
			}
		}
		// Check bijection between mapped LPAs and live PPAs.
		mapped := 0
		seen := map[ftl.PPA]bool{}
		for lpa := int64(0); lpa < logical; lpa++ {
			p := f.Lookup(lpa)
			if p == ftl.NoPPA {
				continue
			}
			if seen[p] || !f.Status(p).Live() {
				return false
			}
			seen[p] = true
			mapped++
		}
		// Every live physical page must be mapped by someone, and the
		// per-status population counters must equal a recount of the
		// status table: a status write that bypasses setStatus skews them.
		live := 0
		var tally [ftl.NumPageStatus]int64
		for p := 0; p < f.Geometry().TotalPages(); p++ {
			st := f.Status(ftl.PPA(p))
			tally[st]++
			if st.Live() {
				live++
			}
		}
		free, valid, secured, invalid := f.PageStatusCounts()
		counted := [ftl.NumPageStatus]int64{ftl.PageFree: free, ftl.PageValid: valid,
			ftl.PageSecured: secured, ftl.PageInvalid: invalid, ftl.PageRetired: f.RetiredPages()}
		return live == mapped && tally == counted
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWearStatsTrackErases(t *testing.T) {
	f, _ := newFTL(t, sanitize.Baseline())
	logical := int64(f.LogicalPages())
	for pass := 0; pass < 4; pass++ {
		for lpa := int64(0); lpa < logical; lpa++ {
			write(t, f, lpa, 1, true)
		}
	}
	w := f.Wear()
	if w.Max == 0 {
		t.Fatal("no wear recorded despite heavy overwrites")
	}
	if w.Mean <= 0 || w.Min > w.Max {
		t.Fatalf("wear stats inconsistent: %+v", w)
	}
}

// Scrubbing a wordline at the write frontier must waste its free slots:
// the allocator skips them and the chip never sees an out-of-order
// program.
func TestScrubOpenWordlineSkipsFrontier(t *testing.T) {
	f, tgt := newFTLWithChips(t, sanitize.ScrSSD())
	// Write one page: it lands on WL0 slot0 of some chip; the WL has two
	// free slots left.
	write(t, f, 0, 1, false)
	used := f.Lookup(0)
	// Trim it: scrSSD scrubs the open WL.
	if _, err := f.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if tgt.Scrubs == 0 {
		t.Fatal("expected a scrub")
	}
	// The two sibling slots must now be invalid (wasted), not free.
	wl := f.Geometry().WLStart(used)
	for s := wl; s < wl+ftl.PPA(f.Geometry().PagesPerWL); s++ {
		if f.Status(s) != ftl.PageInvalid {
			t.Fatalf("page %d status %v after open-WL scrub, want invalid", s, f.Status(s))
		}
	}
	// Subsequent writes must keep working (chip panics on discipline
	// violations through the mirrored chips).
	for i := int64(1); i < 20; i++ {
		write(t, f, i, 1, false)
	}
}

// erSSD during GC: the victim may be erased by the policy mid-collection;
// the allocator must never double-track it. Exercised heavily under churn
// with the real chip models attached (they panic on double programming).
func TestErSSDGCInteractionNoDoubleTracking(t *testing.T) {
	f, _ := newFTLWithChips(t, sanitize.ErSSD())
	logical := int64(f.LogicalPages())
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < int(logical)*6; i++ {
		lpa := rng.Int63n(logical)
		op := blockio.OpWrite
		if rng.Intn(5) == 0 {
			op = blockio.OpTrim
		}
		if _, err := f.Submit(blockio.Request{Op: op, LPA: lpa, Pages: 1, Insecure: rng.Intn(3) == 0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().Erases == 0 {
		t.Fatal("erSSD never erased")
	}
	// Free-block accounting stayed consistent.
	if f.FreeBlocks() < 0 || f.FreeBlocks() > f.Geometry().TotalBlocks() {
		t.Fatalf("free blocks %d out of range", f.FreeBlocks())
	}
}

func TestLifecycleEventsAndPolicyName(t *testing.T) {
	f, _, cap := newRecoveryFTL(t, sanitize.SecSSD())
	if f.PolicyName() != "secSSD" {
		t.Fatalf("PolicyName = %q", f.PolicyName())
	}
	write(t, f, 0, 1, false)
	write(t, f, 0, 1, false) // overwrite: invalidate + pLock (destroy)
	if cap.audits != [3]int{audit.KindCopy: 2, audit.KindInvalidate: 1, audit.KindDestroy: 1} {
		t.Fatalf("lifecycle events: copy=%d invalidate=%d destroy=%d",
			cap.audits[audit.KindCopy], cap.audits[audit.KindInvalidate], cap.audits[audit.KindDestroy])
	}
	// Out-of-range lookups are safe.
	if f.Lookup(-1) != ftl.NoPPA || f.Lookup(1<<40) != ftl.NoPPA {
		t.Fatal("out-of-range Lookup should be NoPPA")
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []ftl.Geometry{
		{Chips: 0, BlocksPerChip: 1, PagesPerBlock: 3, PagesPerWL: 3},
		{Chips: 1, BlocksPerChip: 1, PagesPerBlock: 4, PagesPerWL: 3}, // not a multiple
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestFlushAllocsPerRun is the canary of the recycled sanitize queue: a
// secured single-page overwrite pends the stale copy, and the policy's
// flush drains, locks and hands the drain result back, so once the free
// lists are warm neither PendSanitize nor DrainPending allocates — on
// real chips the pLocks reuse the flag cells garbage collection's
// erases retire.
func TestFlushAllocsPerRun(t *testing.T) {
	for _, policy := range []func() ftl.Policy{sanitize.SecSSD, sanitize.SecSSDNoBLock, sanitize.ErSSD} {
		f, _ := newFTLWithChips(t, policy())
		logical := int64(f.LogicalPages())
		lpa := int64(0)
		overwrite := func() {
			write(t, f, lpa, 1, false)
			lpa = (lpa + 7) % logical
		}
		for i := int64(0); i < 4*logical; i++ {
			overwrite()
		}
		before := f.Stats()
		allocs := testing.AllocsPerRun(200, overwrite)
		after := f.Stats()
		if after.PLocks+after.Erases == before.PLocks+before.Erases {
			t.Fatalf("%s: no lock or erase over 200 secured overwrites: the flush path was not exercised", f.PolicyName())
		}
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per secured overwrite once warm, want 0", f.PolicyName(), allocs)
		}
	}
}
