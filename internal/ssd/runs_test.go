package ssd

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runTarget is the device as the FTL's target, with every copyback run
// either passed through whole (counting the runs of more than one page)
// or split: one page per call, the FTL issuing the rest again after
// that page's bookkeeping — the page-at-a-time order relocation had
// before runs.
type runTarget struct {
	*SSD
	split     bool
	multiRuns int
}

func (t *runTarget) CopybackRun(block int, pages []int, dst ftl.PPA, m []blockio.Stamp, dep sim.Micros) (sim.Micros, sim.Micros, int, error) {
	if t.split {
		return t.SSD.CopybackRun(block, pages[:1], dst, m[:1], dep)
	}
	if len(pages) > 1 {
		t.multiRuns++
	}
	return t.SSD.CopybackRun(block, pages, dst, m, dep)
}

// attachRunTarget rebuilds the device's FTL over a runTarget.
func attachRunTarget(t *testing.T, s *SSD, split bool) *runTarget {
	t.Helper()
	rt := &runTarget{SSD: s, split: split}
	f, err := ftl.New(s.ftlConfig(), rt, s.cfg.Policy)
	if err != nil {
		t.Fatal(err)
	}
	s.ftl = f
	return rt
}

// sameDevices fails the test where the two devices differ in anything the
// FTL or the chips expose: the report and counters, every LPA's mapping,
// every page's spare area and programmed state, every block's write
// pointer and wear, and every chip and channel timeline's busy and wait
// totals.
func sameDevices(t *testing.T, step int, a, b *SSD) {
	t.Helper()
	if ra, rb := a.Report(), b.Report(); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("step %d: reports differ:\nruns  %+v\nsplit %+v", step, ra, rb)
	}
	if sa, sb := a.FTL().Stats(), b.FTL().Stats(); sa != sb {
		t.Fatalf("step %d: stats differ:\nruns  %+v\nsplit %+v", step, sa, sb)
	}
	for lpa := int64(0); lpa < int64(a.LogicalPages()); lpa++ {
		if pa, pb := a.FTL().Lookup(lpa), b.FTL().Lookup(lpa); pa != pb {
			t.Fatalf("step %d: LPA %d maps to page %d with runs, %d split", step, lpa, pa, pb)
		}
	}
	geo := a.Geometry()
	for p := ftl.PPA(0); int(p) < geo.TotalPages(); p++ {
		chip, addr := a.addr(p)
		pa, errA := a.chips[chip].ProbePage(addr, a.makespan)
		pb, errB := b.chips[chip].ProbePage(addr, b.makespan)
		if errA != nil || errB != nil {
			t.Fatalf("step %d: probing page %d: %v, %v", step, p, errA, errB)
		}
		if pa.Programmed != pb.Programmed || pa.Stamped != pb.Stamped || pa.Stamp != pb.Stamp {
			t.Fatalf("step %d: page %d probes %+v with runs, %+v split", step, p, pa, pb)
		}
	}
	for c := range a.chips {
		for blk := 0; blk < geo.BlocksPerChip; blk++ {
			if wa, wb := a.chips[c].WritePointer(blk), b.chips[c].WritePointer(blk); wa != wb {
				t.Fatalf("step %d: chip %d block %d write pointer %d with runs, %d split", step, c, blk, wa, wb)
			}
			if ea, eb := a.chips[c].PECycles(blk), b.chips[c].PECycles(blk); ea != eb {
				t.Fatalf("step %d: chip %d block %d P/E count %d with runs, %d split", step, c, blk, ea, eb)
			}
		}
		if a.chipTL[c] != b.chipTL[c] {
			t.Fatalf("step %d: chip %d timeline %+v with runs, %+v split", step, c, a.chipTL[c], b.chipTL[c])
		}
	}
	if !reflect.DeepEqual(a.busTL, b.busTL) {
		t.Fatalf("step %d: bus timelines %+v with runs, %+v split", step, a.busTL, b.busTL)
	}
}

// tracedDevice is a device built with a trace.Recorder of its own, whose
// event log spills to a temporary file of the test.
func tracedDevice(t *testing.T, cfg Config) (*SSD, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(trace.RecorderConfig{Chips: cfg.Channels * cfg.ChipsPerChannel, Channels: cfg.Channels})
	closeSpill, err := rec.SpillToFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSpill() })
	cfg.Trace = rec
	return mustNew(t, cfg), rec
}

// sameLedgers fails the test where the two recorders' audit ledgers
// differ: their counters, their verifier reports and their closed
// T_insecure windows.
func sameLedgers(t *testing.T, step int, a, b *trace.Recorder) {
	t.Helper()
	if ha, hb := a.Horizon(), b.Horizon(); ha != hb {
		t.Fatalf("step %d: horizon %d with runs, %d split", step, ha, hb)
	}
	la, lb := a.AuditLedger(), b.AuditLedger()
	if sa, sb := la.Stats(a.Horizon()), lb.Stats(b.Horizon()); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("step %d: ledger stats differ:\nruns  %+v\nsplit %+v", step, sa, sb)
	}
	if va, vb := la.Verify(a.Horizon()), lb.Verify(b.Horizon()); !reflect.DeepEqual(va, vb) {
		t.Fatalf("step %d: verifier reports differ:\nruns  %+v\nsplit %+v", step, va, vb)
	}
	if ta, tb := a.TInsecure().Sorted(), b.TInsecure().Sorted(); !reflect.DeepEqual(ta, tb) {
		t.Fatalf("step %d: %d T_insecure windows with runs, %d split, or their spans differ", step, len(ta), len(tb))
	}
}

// sameExports fails the test unless the two recorders' event logs and
// OpenMetrics expositions are byte-equal.
func sameExports(t *testing.T, a, b *trace.Recorder) {
	t.Helper()
	for _, export := range []struct {
		name  string
		write func(*trace.Recorder, io.Writer) error
	}{{"JSONL", (*trace.Recorder).WriteJSONL}, {"OpenMetrics", (*trace.Recorder).WriteOpenMetrics}} {
		var ea, eb bytes.Buffer
		if err := export.write(a, &ea); err != nil {
			t.Fatal(err)
		}
		if err := export.write(b, &eb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
			t.Fatalf("%s exports differ: %d bytes with runs, %d split", export.name, ea.Len(), eb.Len())
		}
	}
}

// TestRelocationRunDifferential drives seeded scripts through two devices
// that differ only in how their copyback runs land — whole, or one page
// per call — and checks after every request that nothing the FTL or the
// chips expose differs. The fill is high, so GC passes, erSSD
// evacuations and scrSSD sibling moves interleave (GC falls due inside
// evacuations), and at fault rate 1e-2 failed programs stop runs midway.
// The traced arm runs both devices under a trace.Recorder: a traced
// relocation issues the same runs, and after every request the audit
// ledgers agree, and at the end so do the event log and the exposition.
func TestRelocationRunDifferential(t *testing.T) {
	policies := []func() ftl.Policy{sanitize.ErSSD, sanitize.ScrSSD, sanitize.SecSSD, sanitize.SecSSDNoBLock}
	for _, policy := range policies {
		for _, rate := range []float64{0, 1e-2} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s/fault%g", policy().Name(), rate)
				if traced {
					name += "/traced"
				}
				t.Run(name, func(t *testing.T) {
					cfg := goldenCell{policy: policy, planes: 1, faultRate: rate}.config()
					cfg.Channels, cfg.ChipsPerChannel, cfg.Chip.Blocks = 1, 2, 64
					var runs, split *SSD
					var recRuns, recSplit *trace.Recorder
					if traced {
						runs, recRuns = tracedDevice(t, cfg)
						split, recSplit = tracedDevice(t, cfg)
					} else {
						runs, split = mustNew(t, cfg), mustNew(t, cfg)
					}
					whole := attachRunTarget(t, runs, false)
					attachRunTarget(t, split, true)
					rng := rand.New(rand.NewSource(int64(len(policy().Name())) + int64(rate*1e4)))
					logical := int64(runs.LogicalPages())
					payload := make([]byte, 4*cfg.Chip.PageBytes)
					step := 0
					submit := func(req blockio.Request) {
						step++
						_, errA := runs.Submit(req)
						_, errB := split.Submit(req)
						if errA != nil || errB != nil {
							t.Fatalf("step %d: %v: %v with runs, %v split", step, req, errA, errB)
						}
						sameDevices(t, step, runs, split)
						if traced {
							sameLedgers(t, step, recRuns, recSplit)
						}
					}
					// Three quarters of the fill are insecure: their stale copies are
					// left to GC by every policy.
					fill := logical * 9 / 10
					for lpa := int64(0); lpa < fill; lpa += 32 {
						submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: int32(min(32, fill-lpa)), Insecure: lpa%128 != 0})
					}
					// The script opens with insecure overwrites of insecure pages,
					// whose stale copies no erSSD erase reclaims, so the chips run
					// short of free blocks.
					for i := 0; i < 1200; i++ {
						lpa := rng.Int63n(logical - 4)
						n := int32(1 + rng.Intn(4))
						op := rng.Intn(9)
						if i < 300 {
							op, lpa = 4, min(lpa&^127+32+lpa%92, fill-4)
						}
						switch op {
						case 0:
							submit(blockio.Request{Op: blockio.OpRead, LPA: lpa, Pages: n})
						case 1, 2:
							submit(blockio.Request{Op: blockio.OpTrim, LPA: lpa, Pages: n})
						case 3:
							rng.Read(payload[:int(n)*cfg.Chip.PageBytes])
							submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: n, Data: payload[:int(n)*cfg.Chip.PageBytes]})
						case 4, 5, 6:
							submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: n, Insecure: true})
						default:
							submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: n})
						}
					}
					if st := runs.FTL().Stats(); st.GCRuns == 0 || st.Copybacks == 0 || whole.multiRuns == 0 {
						t.Fatalf("%d GC passes, %d copybacks, %d runs of more than one page: the run path was not exercised",
							st.GCRuns, st.Copybacks, whole.multiRuns)
					}
					if rate > 0 && runs.FaultCounts().ProgramFails == 0 {
						t.Fatal("no program failed: the stopped-run path was not exercised")
					}
					if traced {
						sameExports(t, recRuns, recSplit)
					}
				})
			}
		}
	}
}
