package ssd

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/sanitize"
)

// batchConfig is smallConfig with the amortization features enabled:
// two planes per chip, cache-mode pipelining (the default), and
// wordline-aware lock batching in immediate mode.
func batchConfig(policy ftl.Policy) Config {
	cfg := smallConfig(policy)
	cfg.Chip.Planes = 2
	cfg.LockBatch = ftl.LockBatchConfig{Enabled: true}
	return cfg
}

func mustNew(t testing.TB, cfg Config) *SSD {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPlanesValidation(t *testing.T) {
	cfg := smallConfig(sanitize.SecSSD())
	cfg.Chip.Planes = 3 // 16 blocks % 3 != 0
	if _, err := New(cfg); err == nil {
		t.Fatal("plane count that does not divide the block count accepted")
	}
}

// Multi-plane striping must group programs (one shared tPROG per stripe)
// and finish a sequential write burst measurably faster than the
// single-plane device.
func TestMultiPlaneWriteThroughput(t *testing.T) {
	run := func(cfg Config) Report {
		s := mustNew(t, cfg)
		for i := 0; i < 16; i++ {
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: int64(i * 8), Pages: 8})
		}
		return s.Report()
	}
	single := run(smallConfig(sanitize.Baseline()))
	multi := run(batchConfig(sanitize.Baseline()))
	if multi.Stats.ProgramGroups == 0 {
		t.Fatal("multi-plane device issued no grouped programs")
	}
	if multi.Stats.GroupedPrograms < multi.Stats.ProgramGroups*2 {
		t.Fatalf("grouped programs %d below 2 per group (%d groups)",
			multi.Stats.GroupedPrograms, multi.Stats.ProgramGroups)
	}
	if multi.Elapsed >= single.Elapsed {
		t.Fatalf("2-plane write burst (%v) not faster than 1-plane (%v)",
			multi.Elapsed, single.Elapsed)
	}
}

// Multi-plane reads share one tREAD per group.
func TestMultiPlaneReadGrouping(t *testing.T) {
	s := mustNew(t, batchConfig(sanitize.Baseline()))
	for i := 0; i < 8; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: int64(i * 8), Pages: 8})
	}
	s.Mark()
	for i := 0; i < 8; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpRead, LPA: int64(i * 8), Pages: 8})
	}
	r := s.Report()
	if r.Stats.ReadGroups == 0 {
		t.Fatal("sequential reads on a 2-plane device were never grouped")
	}
	if r.Stats.HostReadPages != 64 {
		t.Fatalf("host read pages = %d, want 64", r.Stats.HostReadPages)
	}
	if r.Stats.FlashReads != 64 {
		t.Fatalf("flash reads = %d, want 64 (grouping shares tREAD, not the page count)", r.Stats.FlashReads)
	}
}

// Striped writes must be readable back bit-for-bit.
func TestMultiPlaneWriteReadBack(t *testing.T) {
	s := mustNew(t, batchConfig(sanitize.SecSSD()))
	payload := make([]byte, 8*4096)
	rand.New(rand.NewSource(11)).Read(payload)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 40, Pages: 8, Data: payload})
	for i := 0; i < 8; i++ {
		got, err := s.ReadLogical(40 + int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload[i*4096:(i+1)*4096]) {
			t.Fatalf("striped page %d read-back mismatch", i)
		}
	}
}

// Wordline-aware batching: a trim of many pages of one block must
// coalesce pLocks into per-wordline pulses, spending fewer chip pulses
// than pages locked while leaving nothing readable.
func TestLockBatchingCoalescesWordlines(t *testing.T) {
	s := mustNew(t, batchConfig(sanitize.SecSSDNoBLock()))
	page := bytes.Repeat([]byte("TOPSECRET!"), 410)[:4096]
	// 24 pages stripe across 4 chips × 2 planes: each open block
	// receives one full TLC wordline (3 pages).
	data := bytes.Repeat(page, 24)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 24, Data: data})
	s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 24})
	st := s.FTL().Stats()
	if st.PLockBatches == 0 {
		t.Fatal("no batched pulses issued")
	}
	pulses := st.PLocks + st.PLockBatches
	if pulses >= st.PLockBatchedPages+st.PLocks {
		t.Fatalf("batching saved nothing: %d pulses for %d batched pages",
			pulses, st.PLockBatchedPages)
	}
	for ci, chip := range s.Chips() {
		for b := 0; b < chip.Geometry().Blocks; b++ {
			for _, page := range chip.ForensicDump(b, 0) {
				if bytes.Contains(page, []byte("TOPSECRET!")) {
					t.Fatalf("secret recovered from chip %d block %d after batched locks", ci, b)
				}
			}
		}
	}
}

// Batching must not weaken the security contract under churn: same
// forensic guarantee as the per-page path, and the batching counters
// must be active.
func TestBatchingSecurityUnderChurn(t *testing.T) {
	s := mustNew(t, batchConfig(sanitize.SecSSD()))
	if err := s.prefill(0.75, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	logical := int64(s.LogicalPages())
	for i := 0; i < 1500; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical - 4), Pages: 4})
	}
	st := s.FTL().Stats()
	if st.PLockBatches == 0 {
		t.Fatal("churn with batching enabled never batched")
	}
	if st.SanitizeCopies != 0 {
		t.Fatal("Evanesco must not copy pages to sanitize")
	}
	if n := flushed(s); n != 0 {
		t.Fatalf("immediate mode left %d pages queued after requests", n)
	}
}

// flushed runs the FlushLocks barrier and returns how many pages it
// locked: the pages the lock manager still held.
func flushed(s *SSD) uint64 {
	locked := func() uint64 { st := s.FTL().Stats(); return st.PLocks + st.PLockBatchedPages }
	before := locked()
	s.FlushLocks()
	return locked() - before
}

// Deferred mode (positive deadline): incomplete wordline groups ride
// across requests, and FlushLocks is the barrier that drains them.
func TestDeferredDeadlineAndFlushBarrier(t *testing.T) {
	cfg := batchConfig(sanitize.SecSSDNoBLock())
	cfg.LockBatch.Deadline = 1 << 40 // effectively never due on its own
	s := mustNew(t, cfg)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1, Data: data})
	s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 1})
	if st := s.FTL().Stats(); st.PLocks+st.PLockBatchedPages != 0 {
		t.Fatal("deferred mode locked the lone page before the barrier")
	}
	if n := flushed(s); n != 1 {
		t.Fatalf("FlushLocks locked %d pages, want the lone queued one", n)
	}
	if n := flushed(s); n != 0 {
		t.Fatalf("FlushLocks left %d pages queued", n)
	}
}

// The threshold knob force-flushes when the queue grows past it.
func TestLockBatchThreshold(t *testing.T) {
	cfg := batchConfig(sanitize.SecSSDNoBLock())
	cfg.LockBatch.Deadline = 1 << 40
	cfg.LockBatch.Threshold = 4
	s := mustNew(t, cfg)
	data := bytes.Repeat([]byte{0x5A}, 8*4096)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 8, Data: data})
	s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 8})
	if n := flushed(s); n >= 4 {
		t.Fatalf("threshold 4 left %d pages queued", n)
	}
}

// The ablation pair the reproduce figure compares: everything on vs
// everything off, on a sanitization-heavy file-churn workload
// (sequential secured writes, read-back, then a partial trim that keeps
// every block shy of bLock escalation). The "on" device must be at
// least 1.5× faster — the same bar the benchmark gate enforces.
func TestAmortizationAblationFaster(t *testing.T) {
	run := func(cfg Config) Report {
		s := mustNew(t, cfg)
		logical := int64(s.LogicalPages())
		span := int64(24)
		slots := logical / span
		s.Mark()
		for i := 0; i < 150; i++ {
			lpa := (int64(i) % slots) * span
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 24})
			s.mustSubmit(blockio.Request{Op: blockio.OpRead, LPA: lpa, Pages: 24})
			s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: lpa, Pages: 21})
		}
		s.FlushLocks()
		return s.Report()
	}
	off := smallConfig(sanitize.SecSSD())
	off.NoCachePipeline = true
	on := batchConfig(sanitize.SecSSD())
	slow := run(off)
	fast := run(on)
	if fast.IOPS < slow.IOPS*1.5 {
		t.Fatalf("amortized device %.0f IOPS, want ≥1.5× the disabled device's %.0f",
			fast.IOPS, slow.IOPS)
	}
}

// NoCachePipeline must cost time, never change outcomes.
func TestNoCachePipelineAblation(t *testing.T) {
	run := func(noCache bool) Report {
		cfg := smallConfig(sanitize.SecSSD())
		cfg.NoCachePipeline = noCache
		s := mustNew(t, cfg)
		rng := rand.New(rand.NewSource(17))
		logical := int64(s.LogicalPages())
		for i := 0; i < 400; i++ {
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 2})
		}
		return s.Report()
	}
	cached := run(false)
	raw := run(true)
	if raw.Elapsed < cached.Elapsed {
		t.Fatalf("disabling cache-mode sped the device up (%v vs %v)", raw.Elapsed, cached.Elapsed)
	}
	if cached.Stats != raw.Stats {
		t.Fatalf("cache-mode changed op counts:\n%+v\n%+v", cached.Stats, raw.Stats)
	}
}

// Bit-stable determinism with every new feature enabled.
func TestBatchingDeterminism(t *testing.T) {
	run := func() Report {
		s := mustNew(t, batchConfig(sanitize.SecSSD()))
		rng := rand.New(rand.NewSource(5))
		logical := int64(s.LogicalPages())
		for i := 0; i < 500; i++ {
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 2})
		}
		s.FlushLocks()
		return s.Report()
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatalf("nondeterministic batched simulation:\n%+v\n%+v", a, b)
	}
}
