package ssd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lifecycleReport is one half of one lifecycle report: the hook call, or
// the audit/trace record that must follow it.
type lifecycleReport struct {
	kind   string // "destroy", "invalidate", "copy"
	page   uint32
	record bool
	// secured is set on copy hooks only: insecure copies have no record.
	secured bool
}

// lifecycleLog receives both consumers' streams in arrival order: it is
// the trace.Collector of the device and the target of its ftl.Hooks.
type lifecycleLog struct {
	trace.Nop
	reports []lifecycleReport
	// muted drops records while ftl.Restore runs: a remounting FTL has
	// no hooks yet, so its recovery pass reports to the collector alone.
	muted bool
}

const insecureFile = 2

func (l *lifecycleLog) Enabled() bool { return true }

func (l *lifecycleLog) rec(kind string, page uint32) {
	if !l.muted {
		l.reports = append(l.reports, lifecycleReport{kind: kind, page: page, record: true})
	}
}

func (l *lifecycleLog) Invalidated(page uint32, _ bool, _ sim.Micros) { l.rec("invalidate", page) }

func (l *lifecycleLog) Audit(ev audit.Event) {
	switch ev.Kind {
	case audit.KindCopy:
		l.rec("copy", ev.Page)
	case audit.KindDestroy:
		l.rec("destroy", ev.Page)
	}
}

func (l *lifecycleLog) hooks() ftl.Hooks {
	hook := func(kind string, p ftl.PPA, secured bool) {
		l.reports = append(l.reports, lifecycleReport{kind: kind, page: uint32(p), secured: secured})
	}
	return ftl.Hooks{
		// The churn tags every insecure write with insecureFile and
		// writes none before the remount (which forgets file tags), so
		// the tag alone tells whether a copy is secured.
		Programmed:  func(p ftl.PPA, _ int64, file uint64) { hook("copy", p, file != insecureFile) },
		Invalidated: func(p ftl.PPA, _ uint64) { hook("invalidate", p, false) },
		Destroyed:   func(p ftl.PPA, _ uint64) { hook("destroy", p, false) },
	}
}

// verify checks that every hook call is followed at once by its record
// (except insecure copies, which have none) and that no record stands
// alone: the two streams agree page for page, per kind, in order.
func (l *lifecycleLog) verify(t *testing.T) map[string]int {
	t.Helper()
	pairs := map[string]int{}
	for i := 0; i < len(l.reports); i++ {
		h := l.reports[i]
		if h.record {
			t.Fatalf("report %d: %s record for page %d without its hook call", i, h.kind, h.page)
		}
		if h.kind == "copy" && !h.secured {
			continue
		}
		want := lifecycleReport{kind: h.kind, page: h.page, record: true}
		if i+1 == len(l.reports) || l.reports[i+1] != want {
			t.Fatalf("report %d: %s hook for page %d without its record", i, h.kind, h.page)
		}
		pairs[h.kind]++
		i++
	}
	return pairs
}

// TestLifecycleReportsPair drives a faulted churn with a power cut and a
// remount through every policy and checks that the FTL's two report
// consumers — ftl.Hooks and the trace collector's audit stream — were
// told the same story. Commenting out either half of noteDestroyed,
// noteInvalidated or noteCopy fails it.
func TestLifecycleReportsPair(t *testing.T) {
	policies := []ftl.Policy{
		sanitize.Baseline(), sanitize.ErSSD(), sanitize.ScrSSD(),
		sanitize.SecSSDNoBLock(), sanitize.SecSSD(),
	}
	for _, policy := range policies {
		for _, planes := range []int{1, 2} {
			for _, batch := range []bool{false, true} {
				name := fmt.Sprintf("%s/planes=%d/batch=%t", policy.Name(), planes, batch)
				t.Run(name, func(t *testing.T) {
					log := &lifecycleLog{}
					cfg := smallConfig(policy)
					cfg.Planes = planes
					cfg.LockBatch = ftl.LockBatchConfig{Enabled: batch}
					cfg.Fault = fault.Uniform(1e-2, 5)
					cfg.Trace = log
					s := mustNew(t, cfg)
					s.FTL().SetHooks(log.hooks())

					rng := rand.New(rand.NewSource(11))
					logical := int64(s.LogicalPages())
					submit := func(secureOnly bool) error {
						req := blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical - 4),
							Pages: int32(1 + rng.Intn(4)), FileID: 1}
						switch r := rng.Intn(10); {
						case r < 2:
							req.Op = blockio.OpTrim
						case r < 5 && !secureOnly:
							req.Insecure, req.FileID = true, insecureFile
						}
						_, err := s.Submit(req)
						return err
					}
					// A power cut early in the device's life (a remount seals
					// every open block, so it needs the headroom), on
					// secure-only traffic; then the long mixed churn.
					if err := s.ArmPowerCut(fault.CutSpec{AfterOps: 200}); err != nil {
						t.Fatal(err)
					}
					captureLoss(t, s, func() error {
						for {
							if err := submit(true); err != nil {
								return err
							}
						}
					})
					log.muted = true
					if err := s.Remount(0); err != nil {
						t.Fatal(err)
					}
					log.muted = false
					s.FTL().SetHooks(log.hooks())
					// erSSD erases on every secure invalidation; past ~1000
					// requests at this fault rate its erase failures have
					// retired the small device's whole over-provisioning (the
					// documented out-of-space census panic).
					n := 1500
					if policy.Name() == "erSSD" {
						n = 600
					}
					for i := 0; i < n; i++ {
						if err := submit(false); err != nil {
							t.Fatal(err)
						}
					}

					pairs := log.verify(t)
					if pairs["copy"] == 0 || pairs["invalidate"] == 0 {
						t.Fatalf("churn reported %v: no copies or no invalidations", pairs)
					}
					if pairs["destroy"] == 0 {
						t.Fatalf("churn reported %v: no destructions", pairs)
					}
					if s.FaultCounts().OpFails() == 0 {
						t.Fatal("no fault injected: the recovery ladder's reports went unexercised")
					}
				})
			}
		}
	}
}
