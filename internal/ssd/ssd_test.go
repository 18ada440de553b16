package ssd

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/nand/vth"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/trace"
)

// smallConfig: 2 channels × 2 chips, 16 blocks × 8 TLC WLs (24 pages).
func smallConfig(policy ftl.Policy) Config {
	return Config{
		Channels:        2,
		ChipsPerChannel: 2,
		Chip: nand.Geometry{
			Blocks:          16,
			WLsPerBlock:     8,
			CellKind:        vth.TLC,
			PageBytes:       4096,
			EnduranceCycles: 1000,
		},
		OverProvision:   0.25,
		GCFreeBlocksLow: 2,
		QueueDepth:      8,
		Policy:          policy,
		Seed:            7,
	}
}

func newSSD(t testing.TB, policy ftl.Policy) *SSD {
	t.Helper()
	s, err := New(smallConfig(policy))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustSubmit is Submit for a request the test knows to be valid.
func (s *SSD) mustSubmit(req blockio.Request) sim.Micros {
	done, err := s.Submit(req)
	if err != nil {
		panic(err)
	}
	return done
}

// prefill writes the first fraction of the logical space in 64-page
// requests, secured or not, the way a steady-state run starts.
func (s *SSD) prefill(fraction float64, secure bool) error {
	total := int64(float64(s.LogicalPages()) * fraction)
	for lpa := int64(0); lpa < total; lpa += 64 {
		req := blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: int32(min(64, total-lpa)), Insecure: !secure}
		if _, err := s.Submit(req); err != nil {
			return err
		}
	}
	return nil
}

// The over-provisioning floor, on every (blocks, GC threshold, OP) shape
// the tree builds: the effective OP is the configured one unless the
// FTL's GCFreeBlocksLow+1 reserved blocks per chip need more, and every
// device accepts a full logical space written twice over.
func TestOverProvisionFloor(t *testing.T) {
	for _, c := range []struct {
		blocks, gcLow int
		op, want      float64
	}{
		{48, 3, 0.07, 4.0/48 + 0.02}, // experiment.DefaultScale
		{24, 3, 0.07, 4.0/24 + 0.02}, // experiment.SmallScale
		{428, 3, 0.07, 0.07},         // the paper's device
		{112, 2, 0.12, 0.12},         // the §3 study device, default scale
		{60, 2, 0.12, 0.12},          // the §3 study device, small scale
		{32, 2, 0.20, 0.20},          // core.Compact
		{16, 2, 0.20, 3.0/16 + 0.02}, // core.Compact, 16-block reliability device
		{16, 2, 0.25, 0.25},          // smallConfig
	} {
		cfg := DefaultConfig(sanitize.SecSSD())
		cfg.Channels, cfg.ChipsPerChannel = 2, 2
		cfg.Chip.Blocks, cfg.Chip.WLsPerBlock, cfg.Chip.PageBytes = c.blocks, 4, 4096
		cfg.GCFreeBlocksLow, cfg.OverProvision = c.gcLow, c.op
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%d blocks, gcLow %d, OP %v: %v", c.blocks, c.gcLow, c.op, err)
		}
		total := s.Geometry().TotalPages()
		if got, want := s.LogicalPages(), int(float64(total)*(1-c.want)); got != want {
			t.Errorf("%d blocks, gcLow %d, OP %v: %d logical pages, want %d (OP %.4f)",
				c.blocks, c.gcLow, c.op, got, want, c.want)
		}
		logical := int64(s.LogicalPages())
		for pass := 0; pass < 2; pass++ {
			for lpa := int64(0); lpa < logical; lpa += 8 {
				if _, err := s.Submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: int32(min(8, logical-lpa))}); err != nil {
					t.Fatalf("%d blocks, gcLow %d, OP %v: pass %d, LPA %d: %v", c.blocks, c.gcLow, c.op, pass, lpa, err)
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := smallConfig(nil)
	if _, err := New(cfg); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(sanitize.SecSSD())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Geometry()
	if g.Chips != 8 {
		t.Fatalf("chips = %d, want 8 (2 channels × 4)", g.Chips)
	}
	if g.PagesPerBlock != 576 || g.BlocksPerChip != 428 {
		t.Fatalf("geometry %+v", g)
	}
	raw := int64(g.TotalPages()) * int64(g.PageBytes)
	if raw < 30<<30 || raw > 32<<30 {
		t.Fatalf("raw capacity %d bytes, want ≈32 GiB", raw)
	}
}

func TestWriteReadBackData(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	payload := make([]byte, 2*4096)
	rand.New(rand.NewSource(1)).Read(payload)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 10, Pages: 2, Data: payload})
	got0, err := s.ReadLogical(10)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := s.ReadLogical(11)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got0, payload[:4096]) || !bytes.Equal(got1, payload[4096:]) {
		t.Fatal("read-back mismatch")
	}
}

// TestReadLogicalSlicesAreIndependent guards the chip's read-scratch
// aliasing (the bytes a chip Read returns are valid only until the next
// operation on the chip): a page returned to the host must survive a second read
// on the same chip. It fails if ReadLogical stops cloning.
func TestReadLogicalSlicesAreIndependent(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	const n = 8 // more pages than chips: two must share one
	payload := make([]byte, n*4096)
	rand.New(rand.NewSource(3)).Read(payload)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: n, Data: payload})
	firstOnChip := map[int]int64{}
	for lpa := int64(0); lpa < n; lpa++ {
		chip := s.Geometry().ChipOf(s.FTL().Lookup(lpa))
		prev, shared := firstOnChip[chip]
		if !shared {
			firstOnChip[chip] = lpa
			continue
		}
		held, err := s.ReadLogical(prev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadLogical(lpa); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(held, payload[prev*4096:(prev+1)*4096]) {
			t.Fatalf("page %d changed under its holder when page %d was read on chip %d", prev, lpa, chip)
		}
		return
	}
	t.Fatal("no two of the pages share a chip")
}

func TestReadLogicalUnmapped(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	data, err := s.ReadLogical(5)
	if err != nil || data != nil {
		t.Fatalf("unmapped read = (%v, %v), want (nil, nil)", data, err)
	}
}

func TestDataSurvivesGC(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	// Write a marker file, then churn the device so GC relocates it.
	marker := bytes.Repeat([]byte{0xCD}, 4096)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1, Data: marker})
	rng := rand.New(rand.NewSource(2))
	logical := int64(s.LogicalPages())
	for i := 0; i < int(logical)*4; i++ {
		lpa := 1 + rng.Int63n(logical-1)
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
	}
	if s.FTL().Stats().GCRuns == 0 {
		t.Fatal("workload did not trigger GC")
	}
	got, err := s.ReadLogical(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, marker) {
		t.Fatal("GC lost or corrupted relocated data")
	}
}

// End-to-end security: delete a secured file, then dump every chip raw.
// The deleted content must be gone even though no erase happened.
func TestDeletedDataUnrecoverableFromRawChips(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	secret := bytes.Repeat([]byte("TOPSECRET!"), 400) // 4000 bytes
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 3, Pages: 1, Data: secret})
	s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: 3, Pages: 1})
	if s.FTL().Stats().Erases != 0 {
		t.Fatal("trim should not have erased anything (locks are the point)")
	}
	for ci, chip := range s.Chips() {
		for b := 0; b < chip.Geometry().Blocks; b++ {
			for _, page := range chip.ForensicDump(b, 0) {
				if bytes.Contains(page, []byte("TOPSECRET!")) {
					t.Fatalf("secret recovered from chip %d block %d", ci, b)
				}
			}
		}
	}
}

// With the baseline policy the same attack succeeds — demonstrating the
// data versioning vulnerability the paper opens with.
func TestBaselineLeaksDeletedData(t *testing.T) {
	s := newSSD(t, sanitize.Baseline())
	secret := bytes.Repeat([]byte("TOPSECRET!"), 400)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 3, Pages: 1, Data: secret})
	s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: 3, Pages: 1})
	found := false
	for _, chip := range s.Chips() {
		for b := 0; b < chip.Geometry().Blocks; b++ {
			for _, page := range chip.ForensicDump(b, 0) {
				if bytes.Contains(page, []byte("TOPSECRET!")) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("baseline SSD should leak trimmed data to a forensic dump")
	}
}

func TestClosedLoopTimeAdvances(t *testing.T) {
	s := newSSD(t, sanitize.Baseline())
	var last, prev int64
	for i := 0; i < 100; i++ {
		done := s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: int64(i), Pages: 1})
		prev = last
		last = int64(done)
		_ = prev
	}
	r := s.Report()
	if r.Requests != 100 {
		t.Fatalf("requests = %d", r.Requests)
	}
	if r.IOPS <= 0 {
		t.Fatal("IOPS must be positive")
	}
	if r.Elapsed <= 0 {
		t.Fatal("time must advance")
	}
}

func TestParallelismAcrossChips(t *testing.T) {
	// 4 chips: a burst of single-page writes must overlap across chips, so
	// the makespan is far below the serial sum.
	s := newSSD(t, sanitize.Baseline())
	const n = 64
	for i := 0; i < n; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: int64(i), Pages: 1})
	}
	r := s.Report()
	serial := int64(n) * int64(nand.DefaultTiming().Prog)
	if int64(r.Elapsed) > serial/2 {
		t.Fatalf("elapsed %v vs serial %vµs: no parallelism", r.Elapsed, serial)
	}
}

func TestMarkExcludesPrefill(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	if err := s.prefill(0.5, true); err != nil {
		t.Fatal(err)
	}
	s.Mark()
	pre := s.Report()
	if pre.Requests != 0 || pre.Stats.HostWrittenPages != 0 {
		t.Fatalf("report after Mark should be empty, got %+v", pre)
	}
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1})
	r := s.Report()
	if r.Stats.HostWrittenPages != 1 {
		t.Fatalf("delta written = %d, want 1", r.Stats.HostWrittenPages)
	}
}

func TestSubmitErrorPropagates(t *testing.T) {
	s := newSSD(t, sanitize.Baseline())
	_, err := s.Submit(blockio.Request{Op: blockio.OpWrite, LPA: 1 << 40, Pages: 1})
	if err == nil {
		t.Fatal("out-of-range write accepted")
	}
	var e error = err
	if errors.Is(e, nil) {
		t.Fatal("impossible")
	}
}

// The headline comparison at small scale: secSSD ~ baseline, scrSSD
// slower, erSSD dramatically slower; same ordering for WAF.
func TestPolicyPerformanceOrdering(t *testing.T) {
	run := func(policy ftl.Policy) Report {
		s := newSSD(t, policy)
		if err := s.prefill(0.75, true); err != nil {
			t.Fatal(err)
		}
		s.Mark()
		rng := rand.New(rand.NewSource(3))
		logical := int64(s.LogicalPages())
		for i := 0; i < 1500; i++ {
			lpa := rng.Int63n(logical)
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
		}
		return s.Report()
	}
	base := run(sanitize.Baseline())
	sec := run(sanitize.SecSSD())
	scr := run(sanitize.ScrSSD())
	er := run(sanitize.ErSSD())

	// 100%-secured single-page random overwrites are the worst case for
	// Evanesco (every host write pays one pLock and GC flushes batch
	// locks); the paper-scale Fig. 14 benches show the 90%+ averages.
	if sec.IOPS < base.IOPS*0.70 {
		t.Errorf("secSSD IOPS %.0f below 70%% of baseline %.0f", sec.IOPS, base.IOPS)
	}
	if scr.IOPS >= sec.IOPS {
		t.Errorf("scrSSD IOPS %.0f should trail secSSD %.0f", scr.IOPS, sec.IOPS)
	}
	if er.IOPS >= scr.IOPS {
		t.Errorf("erSSD IOPS %.0f should trail scrSSD %.0f", er.IOPS, scr.IOPS)
	}
	if er.WAF <= scr.WAF || scr.WAF <= sec.WAF {
		t.Errorf("WAF ordering wrong: er=%.2f scr=%.2f sec=%.2f", er.WAF, scr.WAF, sec.WAF)
	}
}

func TestSecSSDUsesLocksUnderChurn(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	if err := s.prefill(0.75, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	logical := int64(s.LogicalPages())
	for i := 0; i < 2000; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 1})
	}
	st := s.FTL().Stats()
	if st.PLocks == 0 {
		t.Fatal("expected pLocks under secured churn")
	}
	if st.BLocks == 0 {
		t.Fatal("expected bLocks from GC-drained blocks")
	}
	if st.SanitizeCopies != 0 {
		t.Fatal("Evanesco must not copy pages to sanitize")
	}
}

// TestDeterminismAcrossRuns runs one seeded workload twice and compares
// the reports and the whole recorded command schedule. Multi-page
// overwrites leave several blocks pending per request, so an iteration
// order that is not a function of the seed (the PR 2 DrainPending map
// range) reorders the lock commands even where the totals agree.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (Report, []byte) {
		cfg := smallConfig(sanitize.SecSSD())
		rec := trace.NewRecorder(trace.RecorderConfig{Chips: 4, Channels: 2})
		closeSpill, err := rec.SpillToFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer closeSpill()
		cfg.Trace = rec
		s := mustNew(t, cfg)
		rng := rand.New(rand.NewSource(5))
		logical := int64(s.LogicalPages())
		for i := 0; i < 500; i++ {
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical - 16), Pages: int32(1 + rng.Intn(16))})
		}
		var schedule bytes.Buffer
		if err := rec.WriteJSONL(&schedule); err != nil {
			t.Fatal(err)
		}
		return s.Report(), schedule.Bytes()
	}
	a, scheduleA := run()
	b, scheduleB := run()
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatalf("nondeterministic simulation:\n%+v\n%+v", a, b)
	}
	if !bytes.Equal(scheduleA, scheduleB) {
		t.Fatal("two runs of one seed issued their commands in different orders")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	if err := s.prefill(0.6, true); err != nil {
		t.Fatal(err)
	}
	s.Mark()
	rng := rand.New(rand.NewSource(6))
	logical := int64(s.LogicalPages())
	for i := 0; i < 600; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 1})
	}
	r := s.Report()
	if r.LatencyP50 <= 0 {
		t.Fatal("no latency sampled")
	}
	if !(r.LatencyP50 <= r.LatencyP99 && r.LatencyP99 <= r.LatencyMax) {
		t.Fatalf("percentile ordering: p50=%v p99=%v max=%v", r.LatencyP50, r.LatencyP99, r.LatencyMax)
	}
	// A single-page write cannot complete faster than tPROG.
	if r.LatencyP50 < float64(nand.DefaultTiming().Prog) {
		t.Fatalf("p50 latency %vµs below tPROG", r.LatencyP50)
	}
}

func TestReplayTrace(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	trace := &blockio.Trace{
		PageBytes: 4096,
		Requests: []blockio.Request{
			{Op: blockio.OpWrite, LPA: 0, Pages: 4},
			{Op: blockio.OpRead, LPA: 0, Pages: 2},
			{Op: blockio.OpTrim, LPA: 0, Pages: 4},
			{Op: blockio.OpWrite, LPA: 1 << 40, Pages: 4},                     // beyond capacity: skipped
			{Op: blockio.OpWrite, LPA: int64(s.LogicalPages()) - 2, Pages: 8}, // clipped to 2
		},
	}
	n, err := s.Replay(trace)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d requests, want 4 (one skipped)", n)
	}
	st := s.FTL().Stats()
	if st.HostWrittenPages != 6 { // 4 + clipped 2
		t.Fatalf("written pages %d, want 6", st.HostWrittenPages)
	}
	if st.PLocks == 0 {
		t.Fatal("trim of secured pages should have locked")
	}
}

// A payload larger than the request's pages is a host error, not a
// flash-discipline violation: Submit refuses it and the device stays
// usable.
func TestOversizedPayloadRejected(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	pb := s.Geometry().PageBytes
	if _, err := s.Submit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1, Data: make([]byte, 2*pb)}); err == nil {
		t.Fatal("a two-page payload on a one-page write was accepted")
	}
	data := bytes.Repeat([]byte{0x5C}, pb)
	s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1, Data: data})
	if got, err := s.ReadLogical(0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("write after the rejected one reads back %d bytes, err %v", len(got), err)
	}
}

// A replayed write that straddles logical capacity keeps the payload of
// the pages that survive the clip, and only theirs.
func TestReplayClipsPayload(t *testing.T) {
	s := newSSD(t, sanitize.SecSSD())
	pb, last := s.Geometry().PageBytes, int64(s.LogicalPages())-1
	data := append(bytes.Repeat([]byte{0xA1}, pb), bytes.Repeat([]byte{0xB2}, pb)...)
	trace := &blockio.Trace{Requests: []blockio.Request{{Op: blockio.OpWrite, LPA: last, Pages: 2, Data: data}}}
	if n, err := s.Replay(trace); err != nil || n != 1 {
		t.Fatalf("replayed %d requests, err %v; want the clipped one", n, err)
	}
	if got, err := s.ReadLogical(last); err != nil || !bytes.Equal(got, data[:pb]) {
		t.Fatalf("surviving page reads back %d bytes, err %v; want its own %d", len(got), err, pb)
	}
}

// The channel bus is a shared resource: two chips on one channel cannot
// both transfer at the same instant, so a read burst against a single
// channel takes longer than the same burst spread over two channels.
func TestChannelBusContention(t *testing.T) {
	s := newSSD(t, sanitize.Baseline())
	// Fill a few pages on chips 0 and 1 (channel 0) and 2,3 (channel 1).
	for i := 0; i < 32; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: int64(i), Pages: 1})
	}
	s.Mark()
	for i := 0; i < 32; i++ {
		s.mustSubmit(blockio.Request{Op: blockio.OpRead, LPA: int64(i), Pages: 1})
	}
	r := s.Report()
	// 32 reads over 4 chips: tREAD (80µs) overlaps, transfers (40µs)
	// serialize per channel: per channel 16 transfers = 640µs minimum.
	if int64(r.Elapsed) < 640 {
		t.Fatalf("read burst finished in %v, faster than the channel bus allows", r.Elapsed)
	}
}
