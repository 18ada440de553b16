package ssd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/nand/vth"
	"repro/internal/pintest"
	"repro/internal/sanitize"
)

// goldenCell is one device configuration of the golden device-state
// matrix: the experiment package's SmallScale device (2 channels × 4
// chips, 24 blocks of 16 TLC wordlines, 4-KiB pages) under one policy.
type goldenCell struct {
	name      string
	policy    func() ftl.Policy
	planes    int
	faultRate float64
}

func (c goldenCell) config() Config {
	const (
		channels, chipsPerChannel = 2, 4
		blocks, wls, gcLow        = 24, 16, 3
	)
	// OverProvision is left to applyDefaults' floor, which covers the
	// FTL's per-chip reserve on these 24-block chips.
	return Config{
		Channels:        channels,
		ChipsPerChannel: chipsPerChannel,
		Chip: nand.Geometry{
			Blocks:          blocks,
			WLsPerBlock:     wls,
			CellKind:        vth.TLC,
			PageBytes:       4096,
			EnduranceCycles: 1000,
			Planes:          c.planes,
		},
		GCFreeBlocksLow: gcLow,
		QueueDepth:      32,
		Policy:          c.policy(),
		Seed:            7,
		Fault:           fault.Uniform(c.faultRate, 7),
	}
}

// goldenWorkload prefills the device with secured data, then drives a
// deterministic mix of payload-carrying and timing-only writes, reads
// and trims — enough invalidations that erSSD evacuates blocks, scrSSD
// moves wordline siblings and secSSD locks pages and blocks.
func goldenWorkload(t *testing.T, s *SSD, pageBytes int) {
	t.Helper()
	if err := s.prefill(0.75, true); err != nil {
		t.Fatal(err)
	}
	s.Mark()
	rng := rand.New(rand.NewSource(4242))
	logical := int64(s.LogicalPages())
	payload := make([]byte, 3*pageBytes)
	for i := 0; i < 5000; i++ {
		lpa := rng.Int63n(logical - 4)
		n := int32(1 + rng.Intn(3))
		switch rng.Intn(10) {
		case 0, 1:
			s.mustSubmit(blockio.Request{Op: blockio.OpRead, LPA: lpa, Pages: n})
		case 2, 3:
			s.mustSubmit(blockio.Request{Op: blockio.OpTrim, LPA: lpa, Pages: n})
		case 4, 5, 6:
			rng.Read(payload[:int(n)*pageBytes])
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: n,
				Data: payload[:int(n)*pageBytes], FileID: uint64(1 + i%5)})
		case 7:
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: n, Insecure: true})
		default:
			s.mustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: n, FileID: 9})
		}
	}
	s.FlushLocks()
}

func hashBytes(h hash.Hash, b []byte) {
	var n [8]byte
	if b == nil {
		binary.LittleEndian.PutUint64(n[:], ^uint64(0)) // nil ≠ empty
	} else {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	}
	h.Write(n[:])
	h.Write(b)
}

// deviceDigest hashes everything the device exposes after a run: the
// report, the FTL counters, the fault census, every logical page, and
// every chip's lock state, write pointers, wear, forensic dump and OOB
// stamps.
func deviceDigest(t *testing.T, s *SSD) string {
	t.Helper()
	h := sha256.New()
	rep := s.Report()
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", rep, s.FTL().Stats(), s.FaultCounts())
	for lpa := int64(0); lpa < int64(s.LogicalPages()); lpa++ {
		data, err := s.ReadLogical(lpa)
		if err != nil {
			fmt.Fprintf(h, "lpa %d: %v\n", lpa, err)
		}
		hashBytes(h, data)
	}
	now := rep.Elapsed
	geo := s.Geometry()
	for ci, c := range s.Chips() {
		for b := 0; b < geo.BlocksPerChip; b++ {
			locked, err := c.IsBlockLocked(b, now)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "chip %d block %d: %v %d %d\n", ci, b, locked, c.WritePointer(b), c.PECycles(b))
			for _, page := range c.ForensicDump(b, now) {
				hashBytes(h, page)
			}
			for pg := 0; pg < geo.PagesPerBlock; pg++ {
				pr, err := c.ProbePage(nand.PageAddr{Block: b, Page: pg}, now)
				if err != nil {
					t.Fatal(err)
				}
				// The layout is the probe's before the stamp had a type of
				// its own, so the pins still hold.
				fmt.Fprintf(h, "{Programmed:%v Locked:%v NonZero:%v Meta:{LPA:%d Seq:%d Secure:%v Valid:%v}}\n",
					pr.Programmed, pr.Locked, pr.NonZero, pr.Stamp.LPA, pr.Stamp.Seq, pr.Stamp.Secure, pr.Stamped)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func goldenCells() []goldenCell {
	policies := []struct {
		name string
		mk   func() ftl.Policy
	}{
		{"baseline", sanitize.Baseline},
		{"erSSD", sanitize.ErSSD},
		{"scrSSD", sanitize.ScrSSD},
		{"secSSD", sanitize.SecSSD},
	}
	var cells []goldenCell
	for _, p := range policies {
		for _, planes := range []int{1, 2} {
			for _, rate := range []float64{0, 1e-3} {
				cells = append(cells, goldenCell{
					name:   fmt.Sprintf("%s/planes%d/fault%g", p.name, planes, rate),
					policy: p.mk, planes: planes, faultRate: rate,
				})
			}
		}
	}
	return cells
}

// TestGoldenDeviceState runs every cell and compares the resulting
// device digest with its pin (group ssd of pintest's file) — once on a
// new device, and once on a device built from the one the previous cell
// left behind (NewFrom), which has to end in the same state. The pins
// were taken on the commit before the address-resolution rewrite (PPA →
// chip/block/page by reciprocal multiply instead of division); a change
// to how addresses are computed must leave every one of them unchanged.
func TestGoldenDeviceState(t *testing.T) {
	cells := goldenCells()
	var names []string
	for _, cell := range cells {
		names = append(names, cell.name)
	}
	pins := pintest.Group(t, "ssd", names...)
	var retired *SSD
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			run := func(donor *SSD) (*SSD, string) {
				cfg := cell.config()
				s, err := NewFrom(donor, cfg)
				if err != nil {
					t.Fatal(err)
				}
				goldenWorkload(t, s, cfg.Chip.PageBytes)
				st := s.FTL().Stats()
				switch {
				case st.Erases == 0,
					// erSSD frees blocks by evacuating them; GC never has to run.
					cell.policy().Name() != "erSSD" && st.GCRuns == 0,
					cell.policy().Name() == "erSSD" && st.SanitizeCopies == 0,
					cell.policy().Name() == "scrSSD" && (st.SanitizeCopies == 0 || st.Scrubs == 0),
					cell.policy().Name() == "secSSD" && (st.PLocks == 0 || st.BLocks == 0),
					st.Copybacks == 0,
					cell.faultRate == 0 && s.FaultCounts() != (fault.Counts{}),
					cell.faultRate > 0 && s.FaultCounts().ProgramFails == 0:
					t.Fatalf("workload does not exercise the cell: stats %+v faults %+v", st, s.FaultCounts())
				}
				return s, deviceDigest(t, s)
			}
			fresh, got := run(nil)
			pins.Check(t, cell.name, got)
			if retired == nil {
				retired = fresh // the first cell builds on its own first run
			}
			var adopted string
			if retired, adopted = run(retired); adopted != got {
				t.Errorf("device digest %s built from a used device, %s on a new one", adopted, got)
			}
		})
	}
}
