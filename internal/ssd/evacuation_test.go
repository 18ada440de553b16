package ssd

import (
	"bytes"
	"testing"

	"repro/internal/audit"
	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/nand"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/trace"
)

// copyProbe is a trace collector that probes the destination of every
// relocation copy and quarantined program the moment the FTL reports it,
// so a test sees each page's spare area as it was when its bookkeeping
// ran — before any later erase of its block.
type copyProbe struct {
	s      *SSD
	copies []probedCopy
}

type probedCopy struct {
	page, src ftl.PPA
	lpa       int64
	origin    audit.Origin
	meta      blockio.Stamp
	stamped   bool
}

func (c *copyProbe) Enabled() bool                              { return true }
func (c *copyProbe) Op(trace.Event)                             {}
func (c *copyProbe) Gauge(trace.GaugeKind, sim.Micros, float64) {}

func (c *copyProbe) Audit(ev audit.Event) {
	if ev.Kind != audit.KindCopy || ev.Origin == audit.OriginHost {
		return
	}
	p := ftl.PPA(ev.Page)
	chip, a := c.s.addr(p)
	pr, err := c.s.Chips()[chip].ProbePage(a, 0)
	if err != nil {
		panic(err)
	}
	c.copies = append(c.copies, probedCopy{page: p, src: ftl.PPA(ev.Src), lpa: ev.LPA, origin: ev.Origin, meta: pr.Stamp, stamped: pr.Stamped})
}

// evacuationRun builds a one-chip erSSD device whose first block is full
// of secured host pages (LPAs 0-23) with the next block open (LPA 24),
// so trimming LPA 0 evacuates the block's other 23 live pages in one run
// into the open block. It returns the device, its probe (cleared after
// the fill) and the written payloads. A device built with traced false
// has no collector and no probe. Either way its evacuation is one
// copyback run.
func evacuationRun(t *testing.T, faults fault.Config, traced bool) (*SSD, *copyProbe, []byte) {
	t.Helper()
	cfg := smallConfig(sanitize.ErSSD())
	cfg.Channels, cfg.ChipsPerChannel = 1, 1
	cfg.Fault = faults
	var probe *copyProbe
	if traced {
		probe = &copyProbe{}
		cfg.Trace = probe
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe == nil {
		return s, nil, writeRange(t, s, 0, 25, 0x5A)
	}
	probe.s = s
	data := writeRange(t, s, 0, 25, 0x5A)
	probe.copies = nil
	return s, probe, data
}

func trimFirst(s *SSD) error {
	_, err := s.Submit(blockio.Request{Op: blockio.OpTrim, LPA: 0, Pages: 1})
	return err
}

// checkRunPrefix asserts what the pages a run copied before its fault
// must show: one evacuation copy each of a page of the victim block,
// stamped as it landed with its LPA, the secured class and a sequence
// number above the previous copy's.
func checkRunPrefix(t *testing.T, s *SSD, done []probedCopy, victim int) {
	t.Helper()
	seen := map[ftl.PPA]bool{}
	var seq uint64
	for i, c := range done {
		if c.origin != audit.OriginEvacuate || s.Geometry().BlockOf(c.src) != victim {
			t.Fatalf("copy %d: origin %v from page %d, want an evacuation of block %d", i, c.origin, c.src, victim)
		}
		if seen[c.page] {
			t.Fatalf("copy %d: page %d registered twice", i, c.page)
		}
		seen[c.page] = true
		if !c.stamped || c.meta.LPA != c.lpa || !c.meta.Secure || c.meta.Seq <= seq {
			t.Fatalf("copy %d to page %d: stamp %+v, want LPA %d, secured, seq above %d", i, c.page, c.meta, c.lpa, seq)
		}
		seq = c.meta.Seq
	}
}

// checkRecovered remounts the device and asserts that no secured stale
// copy is readable and every LPA but the trimmed one reads back intact.
func checkRecovered(t *testing.T, s *SSD, data []byte) {
	t.Helper()
	if err := s.Remount(0); err != nil {
		t.Fatal(err)
	}
	if stale := ftltest.ReadableStale(s.FTL(), s.Chips(), s.makespan); len(stale) != 0 {
		t.Fatalf("stale physical pages %v readable with data after remount", stale)
	}
	pb := s.Geometry().PageBytes
	for lpa := 1; lpa < 25; lpa++ {
		got, err := s.ReadLogical(int64(lpa))
		if err != nil || !bytes.Equal(got, data[lpa*pb:(lpa+1)*pb]) {
			t.Fatalf("LPA %d did not survive the run and remount (err %v)", lpa, err)
		}
	}
}

// The per-page order of a relocation run: each copied page is stamped as
// it lands and registered in page order, so a fault at the first, middle
// or last page of an erSSD evacuation leaves every earlier copy stamped
// with increasing sequence numbers and one evacuation copy in the
// ledger, the faulted destination unstamped, and — after a remount — no
// secured stale copy readable. While a power cut is armed the device
// lands a run a page at a time, so the cut at copy k strikes after the
// bookkeeping of the k-1 copies before it, traced or not.
func TestEvacuationCopybackRunOrder(t *testing.T) {
	const live = 23 // the victim block's pages after the trim of LPA 0
	positions := map[string]int{"first": 1, "middle": (live + 1) / 2, "last": live}

	t.Run("power cut", func(t *testing.T) {
		for name, k := range positions {
			t.Run(name, func(t *testing.T) {
				s, probe, data := evacuationRun(t, fault.Config{}, true)
				victim := s.Geometry().BlockOf(s.FTL().Lookup(0))
				if err := s.ArmPowerCut(fault.CutSpec{AfterOps: uint64(k), Op: fault.CutProgram}); err != nil {
					t.Fatal(err)
				}
				if loss := captureLoss(t, s, func() error { return trimFirst(s) }); loss.Op != nand.OpProgram {
					t.Fatalf("cut struck %v, want a relocation program", loss.Op)
				}
				if len(probe.copies) != k-1 {
					t.Fatalf("%d copies registered before the cut at copy %d, want %d", len(probe.copies), k, k-1)
				}
				checkRunPrefix(t, s, probe.copies, victim)
				// The torn destination is the one programmed page without a
				// stamp, right after the last completed copy.
				var torn []ftl.PPA
				for p := ftl.PPA(0); int(p) < s.Geometry().TotalPages(); p++ {
					chip, a := s.addr(p)
					pr, err := s.Chips()[chip].ProbePage(a, 0)
					if err != nil {
						t.Fatal(err)
					}
					if pr.Programmed && !pr.Stamped {
						torn = append(torn, p)
					}
				}
				if len(torn) != 1 || (k > 1 && torn[0] != probe.copies[k-2].page+1) {
					t.Fatalf("unstamped programmed pages %v, want the one destination after the %d completed copies", torn, k-1)
				}
				checkRecovered(t, s, data)
			})
		}
	})

	// Without a collector the evacuation is the same copyback run, landed
	// a page at a time while the cut is armed: the k-1 copies before the
	// cut are remapped.
	t.Run("power cut, no collector", func(t *testing.T) {
		for name, k := range positions {
			t.Run(name, func(t *testing.T) {
				s, _, data := evacuationRun(t, fault.Config{}, false)
				victim := s.Geometry().BlockOf(s.FTL().Lookup(0))
				if err := s.ArmPowerCut(fault.CutSpec{AfterOps: uint64(k), Op: fault.CutProgram}); err != nil {
					t.Fatal(err)
				}
				if loss := captureLoss(t, s, func() error { return trimFirst(s) }); loss.Op != nand.OpProgram {
					t.Fatalf("cut struck %v, want a relocation program", loss.Op)
				}
				moved := 0
				for lpa := int64(1); lpa < 24; lpa++ {
					if s.Geometry().BlockOf(s.FTL().Lookup(lpa)) != victim {
						moved++
					}
				}
				if moved != k-1 {
					t.Fatalf("%d pages remapped before the cut at copy %d, want %d", moved, k, k-1)
				}
				checkRecovered(t, s, data)
			})
		}
	})

	// A failed program consumes its destination, which the FTL
	// quarantines before retrying the page on a fresh one. The injector's
	// schedule is a function of its seed, so the test takes the first
	// seeds whose only failed program is the run's copy at each position.
	t.Run("program failure", func(t *testing.T) {
		found := map[int]bool{}
		for seed := int64(1); len(found) < len(positions) && seed <= 2000; seed++ {
			s, probe, data := evacuationRun(t, fault.Config{ProgramFail: 0.03, Seed: seed}, true)
			if s.FaultCounts().ProgramFails > 0 {
				continue // the fill itself failed a program
			}
			victim := s.Geometry().BlockOf(s.FTL().Lookup(0))
			if err := trimFirst(s); err != nil {
				t.Fatal(err)
			}
			if s.FaultCounts().ProgramFails != 1 {
				continue
			}
			q := -1
			for i, c := range probe.copies {
				if c.origin == audit.OriginQuarantine {
					q = i
					break
				}
			}
			k := q + 1
			if q < 0 || found[k] || (k != positions["first"] && k != positions["middle"] && k != positions["last"]) {
				continue
			}
			found[k] = true
			checkRunPrefix(t, s, probe.copies[:q], victim)
			if bad := probe.copies[q]; bad.stamped {
				t.Fatalf("seed %d: failed program at copy %d left stamp %+v on page %d", seed, k, bad.meta, bad.page)
			}
			// The retry takes a fresh destination and completes the run.
			if n := len(probe.copies); n < q+2 || probe.copies[q+1].page == probe.copies[q].page ||
				probe.copies[q+1].origin != audit.OriginEvacuate {
				t.Fatalf("seed %d: no evacuation retry on a fresh page after the failed copy %d", seed, k)
			}
			checkRecovered(t, s, data)
		}
		if len(found) < len(positions) {
			t.Fatalf("seeds 1-2000 put a lone program failure at copies %v only", found)
		}
	})
}
