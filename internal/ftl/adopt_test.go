package ftl_test

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adopt/adopttest"
	"repro/internal/audit"
	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/sanitize"
	"repro/internal/sim"
)

// adoptGeometry is large enough to lose blocks to scripted erase
// failures and keep going.
func adoptGeometry(t *testing.T, chips, blocks, wls, planes int) ftl.Geometry {
	t.Helper()
	geo, err := ftl.Geometry{
		Chips: chips, BlocksPerChip: blocks, PagesPerBlock: 3 * wls, PagesPerWL: 3,
		PageBytes: 512, Planes: planes,
	}.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	return geo
}

func adoptConfig(geo ftl.Geometry, logicalShare float64, lb ftl.LockBatchConfig) ftl.Config {
	return ftl.Config{
		Geometry:        geo,
		LogicalPages:    int(float64(geo.TotalPages()) * logicalShare),
		GCFreeBlocksLow: 2,
		Timing:          ftl.LockTiming{PLock: 100, BLock: 300},
		LockBatch:       lb,
	}
}

// churn drives secured and unsecured writes with payloads, trims and
// reads over the whole logical space.
func churn(t *testing.T, f *ftl.FTL, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	logical := int64(f.LogicalPages())
	payload := make([]byte, 3*f.Geometry().PageBytes)
	var now int64
	for i := 0; i < n; i++ {
		req := blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical - 3), Pages: int32(1 + rng.Intn(3)), FileID: uint64(1 + i%7)}
		switch rng.Intn(8) {
		case 0:
			req.Op = blockio.OpRead
		case 1, 2:
			req.Op = blockio.OpTrim
		case 3:
			req.Insecure = true
		default:
			req.Data = payload[:int(req.Pages)*f.Geometry().PageBytes]
			rng.Read(req.Data)
		}
		now += 50
		if _, err := f.Submit(req, sim.Micros(now)); err != nil {
			t.Fatalf("request %d %v: %v", i, req, err)
		}
	}
}

// usedFTL returns a translation layer that has been through GC, lock
// batching across requests, multi-plane striping, and every rung of the
// recovery ladder (failed programs, pLocks, bLocks and erases) — under a
// collector when traced, so that it holds file annotations too.
func usedFTL(t *testing.T, traced bool) *ftl.FTL {
	t.Helper()
	geo := adoptGeometry(t, 2, 16, 8, 2)
	tgt := ftltest.New(geo)
	every := func(n int) func() error {
		calls := 0
		return func() error {
			if calls++; calls%n == 0 {
				return errors.New("scripted fault")
			}
			return nil
		}
	}
	prog, plock, block, erase := every(41), every(13), every(3), every(29)
	tgt.FailProgram = func(ftl.PPA) error { return prog() }
	tgt.FailPLock = func(ftl.PPA) error { return plock() }
	tgt.FailBLock = func(int) error { return block() }
	tgt.FailErase = func(int) error { return erase() }
	cfg := adoptConfig(geo, 0.5, ftl.LockBatchConfig{Enabled: true, Deadline: 400, Threshold: 24})
	if traced {
		cfg.Tracer = &capture{}
	}
	f, err := ftl.New(cfg, tgt, sanitize.SecSSD())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, f, 5, 3000)
	st := f.Stats()
	if st.Erases == 0 || st.GCRuns == 0 || st.PLocks == 0 || st.BLocks == 0 || st.PLockBatches == 0 ||
		st.ProgramGroups == 0 || st.ProgramRetries == 0 || st.LockEscalations == 0 || st.RetiredBlocks == 0 ||
		slices.Max(f.EraseCounts()) == 0 || f.LockQueueLen() == 0 {
		t.Fatalf("FTL is not used enough: %+v, %d locks queued", st, f.LockQueueLen())
	}
	return f
}

// TestNewFromEqualsNew: an FTL built from a used one is, right after
// construction, the FTL New builds — every mapping, status, counter,
// queue and free list compared field by field — and maps the same
// workload the same way. Each next configuration differs from the
// donor's, tracing included: a traced donor hands on to an untraced build
// and the reverse.
func TestNewFromEqualsNew(t *testing.T) {
	for _, next := range []struct {
		name   string
		geo    ftl.Geometry
		share  float64
		lb     ftl.LockBatchConfig
		policy string
		traced bool
	}{
		{"same geometry, no batching, more capacity, erSSD", adoptGeometry(t, 2, 16, 8, 2), 0.6, ftl.LockBatchConfig{}, "erSSD", false},
		{"same configuration", adoptGeometry(t, 2, 16, 8, 2), 0.5, ftl.LockBatchConfig{Enabled: true, Deadline: 400, Threshold: 24}, "secSSD", true},
		{"one plane, fewer blocks", adoptGeometry(t, 2, 12, 4, 1), 0.4, ftl.LockBatchConfig{Enabled: true}, "scrSSD", false},
		{"more chips", adoptGeometry(t, 4, 16, 12, 2), 0.5, ftl.LockBatchConfig{Enabled: true}, "secSSD_nobLock", true},
	} {
		t.Run(next.name, func(t *testing.T) {
			build := func(donor *ftl.FTL) *ftl.FTL {
				policy, err := sanitize.ByName(next.policy)
				if err != nil {
					t.Fatal(err)
				}
				cfg := adoptConfig(next.geo, next.share, next.lb)
				if next.traced {
					cfg.Tracer = &capture{}
				}
				f, err := ftl.NewFrom(donor, cfg, ftltest.New(next.geo), policy)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			fresh, adopted := build(nil), build(usedFTL(t, !next.traced))
			if d := adopttest.Diff(fresh, adopted); d != "" {
				t.Fatalf("FTL built from a used one differs from a new one at %s", d)
			}
			churn(t, fresh, 9, 1500)
			churn(t, adopted, 9, 1500)
			if !reflect.DeepEqual(fresh.Stats(), adopted.Stats()) || !slices.Equal(fresh.EraseCounts(), adopted.EraseCounts()) {
				t.Errorf("the adopted FTL ran the same workload differently:\nnew     %+v\nadopted %+v", fresh.Stats(), adopted.Stats())
			}
			for lpa := int64(0); lpa < int64(fresh.LogicalPages()); lpa++ {
				if fresh.Lookup(lpa) != adopted.Lookup(lpa) {
					t.Fatalf("lpa %d maps to %d on a new FTL, %d on the adopted one", lpa, fresh.Lookup(lpa), adopted.Lookup(lpa))
				}
			}
		})
	}
}

// fileAnnotations is the length of the FTL's unexported per-page file
// annotation table.
func fileAnnotations(f *ftl.FTL) int {
	return reflect.ValueOf(f).Elem().FieldByName("fileOf").Len()
}

// lifecycles is a collector that checks, as the events arrive, that every
// relocated copy and every invalidation carries the file its source page
// was written for.
type lifecycles struct {
	capture
	t      *testing.T
	fileAt map[uint32]uint64
	moved  int
}

func (l *lifecycles) Audit(ev audit.Event) {
	l.capture.Audit(ev)
	switch ev.Kind {
	case audit.KindCopy:
		if ev.Src != audit.NoSrc {
			if want := l.fileAt[ev.Src]; ev.File != want {
				l.t.Errorf("copy of page %d to %d carries file %d, want %d", ev.Src, ev.Page, ev.File, want)
			}
			l.moved++
		}
		l.fileAt[ev.Page] = ev.File
	case audit.KindInvalidate:
		if want := l.fileAt[ev.Page]; ev.File != want {
			l.t.Errorf("invalidation of page %d carries file %d, want %d", ev.Page, ev.File, want)
		}
	}
}

// TestFileAnnotationsOnlyUnderCollector: the per-page file annotations
// feed only the audit events, so an FTL without a collector holds none —
// whatever its donor held — and one with a collector holds a full table,
// from which every relocation and invalidation event reports the file of
// the page it moved or staled.
func TestFileAnnotationsOnlyUnderCollector(t *testing.T) {
	geo := adoptGeometry(t, 2, 16, 8, 2)
	lb := ftl.LockBatchConfig{Enabled: true, Deadline: 400, Threshold: 24}
	untraced, err := ftl.NewFrom(usedFTL(t, true), adoptConfig(geo, 0.5, lb), ftltest.New(geo), sanitize.ScrSSD())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, untraced, 9, 1500)
	if n := fileAnnotations(untraced); n != 0 {
		t.Errorf("untraced FTL built from a traced one holds %d file annotations, want none", n)
	}

	cfg := adoptConfig(geo, 0.5, lb)
	col := &lifecycles{t: t, fileAt: map[uint32]uint64{}}
	cfg.Tracer = col
	traced, err := ftl.NewFrom(usedFTL(t, false), cfg, ftltest.New(geo), sanitize.ScrSSD())
	if err != nil {
		t.Fatal(err)
	}
	if n := fileAnnotations(traced); n != geo.TotalPages() {
		t.Errorf("traced FTL built from an untraced one holds %d file annotations, want %d", n, geo.TotalPages())
	}
	churn(t, traced, 9, 1500)
	if col.moved == 0 {
		t.Fatal("no relocation was reported: the annotation path was not exercised")
	}
}
