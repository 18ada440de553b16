package ftl_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adopt/adopttest"
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
		Timing:          ftl.DefaultLockTiming(),
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
// recovery ladder (failed programs, pLocks, bLocks and erases).
func usedFTL(t *testing.T) *ftl.FTL {
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
	f, err := ftl.New(adoptConfig(geo, 0.5, ftl.LockBatchConfig{Enabled: true, Deadline: 400, Threshold: 24}), tgt, sanitize.SecSSD())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, f, 5, 3000)
	st := f.Stats()
	if st.Erases == 0 || st.GCRuns == 0 || st.PLocks == 0 || st.BLocks == 0 || st.PLockBatches == 0 ||
		st.ProgramGroups == 0 || st.ProgramRetries == 0 || st.LockEscalations == 0 || st.RetiredBlocks == 0 ||
		f.Wear().Max == 0 || f.LockQueueLen() == 0 {
		t.Fatalf("FTL is not used enough: %+v, wear %+v, %d locks queued", st, f.Wear(), f.LockQueueLen())
	}
	return f
}

// TestNewFromEqualsNew: an FTL built from a used one is, right after
// construction, the FTL New builds — every mapping, status, counter,
// queue and free list compared field by field — and maps the same
// workload the same way. Each next configuration differs from the
// donor's.
func TestNewFromEqualsNew(t *testing.T) {
	for _, next := range []struct {
		name   string
		geo    ftl.Geometry
		share  float64
		lb     ftl.LockBatchConfig
		policy string
	}{
		{"same geometry, no batching, more capacity, erSSD", adoptGeometry(t, 2, 16, 8, 2), 0.6, ftl.LockBatchConfig{}, "erSSD"},
		{"same configuration", adoptGeometry(t, 2, 16, 8, 2), 0.5, ftl.LockBatchConfig{Enabled: true, Deadline: 400, Threshold: 24}, "secSSD"},
		{"one plane, fewer blocks", adoptGeometry(t, 2, 12, 4, 1), 0.4, ftl.LockBatchConfig{Enabled: true}, "scrSSD"},
		{"more chips", adoptGeometry(t, 4, 16, 12, 2), 0.5, ftl.LockBatchConfig{Enabled: true}, "secSSD_nobLock"},
	} {
		t.Run(next.name, func(t *testing.T) {
			build := func(donor *ftl.FTL) *ftl.FTL {
				policy, err := sanitize.ByName(next.policy)
				if err != nil {
					t.Fatal(err)
				}
				f, err := ftl.NewFrom(donor, adoptConfig(next.geo, next.share, next.lb), ftltest.New(next.geo), policy)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			fresh, adopted := build(nil), build(usedFTL(t))
			if d := adopttest.Diff(fresh, adopted); d != "" {
				t.Fatalf("FTL built from a used one differs from a new one at %s", d)
			}
			churn(t, fresh, 9, 1500)
			churn(t, adopted, 9, 1500)
			if !reflect.DeepEqual(fresh.Stats(), adopted.Stats()) || fresh.Wear() != adopted.Wear() {
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
