package ssd

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/adopt/adopttest"
	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/nand/nandtest"
	"repro/internal/sanitize"
)

// usedDevice returns a device that has been through everything a run can
// do to one: a two-plane secSSD with lock batching under a 1 % fault
// rate, prefilled, driven with real payloads, trims and reads until it
// garbage-collects and locks, power-cut mid-run and remounted, driven
// again, and aged by two years.
func usedDevice(t *testing.T) *SSD {
	t.Helper()
	cfg := goldenCell{policy: sanitize.SecSSD, planes: 2, faultRate: 1e-2}.config()
	cfg.LockBatch = ftl.LockBatchConfig{Enabled: true, Deadline: 2000, Threshold: 96}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.prefill(0.6, true); err != nil {
		t.Fatal(err)
	}
	s.Mark()
	rng := rand.New(rand.NewSource(77))
	logical := int64(s.LogicalPages())
	payload := make([]byte, 3*cfg.Chip.PageBytes)
	churn := func(n int) error {
		for i := 0; i < n; i++ {
			lpa, pages := rng.Int63n(logical-4), int32(1+rng.Intn(3))
			req := blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: pages, FileID: uint64(1 + i%5)}
			switch rng.Intn(8) {
			case 0:
				req.Op = blockio.OpRead
			case 1, 2:
				req.Op = blockio.OpTrim
			case 3:
				req.Insecure = true
			default:
				req.Data = payload[:int(pages)*cfg.Chip.PageBytes]
				rng.Read(req.Data)
			}
			if _, err := s.Submit(req); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.ArmPowerCut(fault.CutSpec{AfterOps: 9000, Op: fault.CutAny}); err != nil {
		t.Fatal(err)
	}
	captureLoss(t, s, func() error { return churn(4000) })
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	if err := churn(1500); err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Chips() {
		c.AdvanceDays(730)
	}
	st, stores, chunks := s.FTL().Stats(), 0, 0
	for _, c := range s.Chips() {
		ps, used, _ := nandtest.LazyState(c)
		stores, chunks = stores+ps, chunks+used
	}
	if st.Erases == 0 || st.GCRuns == 0 || st.PLocks == 0 || st.PLockBatches == 0 || st.ProgramGroups == 0 ||
		s.FaultCounts().ProgramFails == 0 || s.cut.Armed() || stores == 0 || chunks == 0 {
		t.Fatalf("device is not used enough: stats %+v, faults %+v, cut pending %v, %d payload stores, %d flag chunks",
			st, s.FaultCounts(), s.cut.Armed(), stores, chunks)
	}
	return s
}

// rawDump reads every page of every chip the way the §5.1 attacker
// does, through ForensicDump; a byte after each page tells an erased page
// (nil) from a programmed one.
func rawDump(s *SSD) []byte {
	var out []byte
	for _, c := range s.Chips() {
		for b := 0; b < c.Geometry().Blocks; b++ {
			for _, page := range c.ForensicDump(b, 0) {
				out = append(append(out, page...), byte(min(len(page), 1)))
			}
		}
	}
	return out
}

// TestNewFromEqualsNew: a device built from a used one is, immediately
// after construction, the device New builds — every table, counter,
// timeline, RNG and fault-injector state of every layer, compared field
// by field — reads back the same at the chips' pins, and ends a workload
// in the same state. The next configuration differs from the donor's each
// time, so nothing can be right by having been left alone.
func TestNewFromEqualsNew(t *testing.T) {
	sameShape := goldenCell{policy: sanitize.Baseline, planes: 1}.config()
	sameShape.Seed, sameShape.OverProvision, sameShape.QueueDepth = 11, 0.3, 8
	sameConfig := goldenCell{policy: sanitize.SecSSD, planes: 2, faultRate: 1e-2}.config()
	sameConfig.LockBatch = ftl.LockBatchConfig{Enabled: true, Deadline: 2000, Threshold: 96}
	smaller := goldenCell{policy: sanitize.ScrSSD, planes: 1, faultRate: 1e-3}.config()
	smaller.Channels, smaller.ChipsPerChannel = 1, 2
	smaller.Chip.Blocks, smaller.Chip.WLsPerBlock, smaller.Chip.PageBytes = 16, 8, 2048
	smaller.OverProvision = 0.3
	larger := goldenCell{policy: sanitize.ErSSD, planes: 2}.config()
	larger.Chip.Blocks, larger.Chip.WLsPerBlock, larger.QueueDepth = 32, 24, 64
	for _, next := range []struct {
		name string
		cfg  Config
	}{
		{"same chips, baseline, one plane, other seed and capacity", sameShape},
		{"same configuration", sameConfig},
		{"fewer and smaller chips", smaller},
		{"larger chips", larger},
	} {
		t.Run(next.name, func(t *testing.T) {
			build := func(donor *SSD) *SSD {
				cfg := next.cfg
				// A policy instance serves one device.
				cfg.Policy, _ = sanitize.ByName(next.cfg.Policy.Name())
				s, err := NewFrom(donor, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			fresh, adopted := build(nil), build(usedDevice(t))
			if d := adopttest.Diff(fresh, adopted); d != "" {
				t.Fatalf("device built from a used one differs from a new one at %s", d)
			}
			if !bytes.Equal(rawDump(fresh), rawDump(adopted)) {
				t.Error("raw dump of the adopted device differs from a new device's")
			}
			for _, s := range []*SSD{fresh, adopted} {
				if err := s.prefill(0.5, true); err != nil {
					t.Fatal(err)
				}
				s.Mark()
				for lpa := int64(0); lpa < int64(s.LogicalPages()/2); lpa += 3 {
					s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 2})
				}
			}
			if deviceDigest(t, fresh) != deviceDigest(t, adopted) {
				t.Error("the adopted device ends the same workload in another state than a new one")
			}
		})
	}
}
