package experiment

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/blockio"
	"repro/internal/filesys"
	"repro/internal/ftl"
	"repro/internal/nand/nandtest"
	"repro/internal/sanitize"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// parTestScale is a cut-down SmallScale so the serial+parallel double
// run stays fast.
func parTestScale() Scale {
	sc := SmallScale()
	sc.StudyPages = 1500
	return sc
}

// gridCell is one (workload, policy) cell of the Fig. 14 grid.
type gridCell struct {
	prof   workload.Profile
	policy string
}

// gridCells lists the 20 cells in grid order.
func gridCells() []gridCell {
	var cells []gridCell
	for _, prof := range workload.Profiles() {
		for _, pol := range Policies() {
			cells = append(cells, gridCell{prof, pol.Name()})
		}
	}
	return cells
}

// executeCell runs a cell through execute with the given hand-over (nil:
// on a device of its own, which is Execute).
func executeCell(t *testing.T, c gridCell, sc Scale, h handover) Run {
	t.Helper()
	policy, err := PolicyByName(c.policy)
	if err != nil {
		t.Fatal(err)
	}
	run, err := execute(c.prof, policy, 1.0, sc, nil, h)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.prof.Name, c.policy, err)
	}
	return run
}

// TestFigure14WorkerInvariant is the golden determinism check for the
// system-level grid, with Execute on a device of its own as the
// reference for every one of the 20 cells: the grid at 1 and at 3
// workers, and the cells pushed one after another through a single
// hand-over in reversed and in interleaved order — so every cell is built
// on the storage some other workload × policy cell used up — must
// reproduce it exactly (reflect.DeepEqual down to every latency
// percentile in the reports).
func TestFigure14WorkerInvariant(t *testing.T) {
	sc := parTestScale()
	cells := gridCells()
	want := make([]Run, len(cells))
	for i, c := range cells {
		want[i] = executeCell(t, c, sc, nil)
	}
	for _, workers := range []int{1, 3} {
		rows, err := Figure14Parallel(sc, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			if got := rows[i/len(Policies())].Runs[c.policy]; !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%d workers: cell %s/%s differs from Execute:\ngrid:    %+v\nExecute: %+v",
					workers, c.prof.Name, c.policy, got, want[i])
			}
		}
	}
	orders := map[string]func(k int) int{
		"reversed":    func(k int) int { return len(cells) - 1 - k },
		"interleaved": func(k int) int { return k * 7 % len(cells) }, // 7 and 20 are coprime
	}
	for name, order := range orders {
		h := newHandover(1)
		for k := range cells {
			i := order(k)
			if got := executeCell(t, cells[i], sc, h); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s order, step %d: cell %s/%s on an adopted device differs from Execute:\nadopted: %+v\nExecute: %+v",
					name, k, cells[i].prof.Name, cells[i].policy, got, want[i])
			}
			if k > 0 && len(h) != 1 {
				t.Fatalf("%s order, step %d: %d cells waiting in the hand-over, want the one just retired", name, k, len(h))
			}
		}
	}
}

// failingCollector panics on its n-th operation: a cell that dies mid-run.
type failingCollector struct {
	trace.Nop
	left int
}

func (c *failingCollector) Enabled() bool { return true }

func (c *failingCollector) Op(trace.Event) {
	if c.left--; c.left == 0 {
		panic("collector gave up")
	}
}

// TestHandoverRetiresOnlyCompletedRuns: a cell that fails to build, or
// panics half way, takes a waiting device and hands nothing on; and the
// hand-over never holds more devices than it was made for.
func TestHandoverRetiresOnlyCompletedRuns(t *testing.T) {
	sc := parTestScale()
	c := gridCell{workload.Mobile(), "secSSD"}
	policy := func() ftl.Policy { p, _ := PolicyByName(c.policy); return p }
	h := newHandover(2)

	executeCell(t, c, sc, h)
	bad := sc
	bad.BlocksPerChip = 0
	if _, err := execute(c.prof, policy(), 1.0, bad, nil, h); err == nil {
		t.Error("a zero-block device was built")
	}
	if len(h) != 0 {
		t.Errorf("%d cells waiting after a cell that could not build took the only one", len(h))
	}

	executeCell(t, c, sc, h)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the collector's panic did not reach the caller")
			}
		}()
		_, _ = execute(c.prof, policy(), 1.0, sc, &failingCollector{left: 500}, h)
	}()
	if len(h) != 0 {
		t.Errorf("%d cells waiting after a cell that panicked took the only one", len(h))
	}

	for i := 0; i < 3; i++ {
		dev, err := ssd.New(sc.Device(policy(), nil))
		if err != nil {
			t.Fatal(err)
		}
		h.retire(retired{dev: dev})
	}
	if len(h) != 2 {
		t.Errorf("%d cells waiting in a hand-over made for 2 workers after 3 were retired", len(h))
	}
}

func TestFigure14cWorkerInvariant(t *testing.T) {
	profiles := []workload.Profile{workload.Mobile()}
	fractions := []float64{0.6, 1.0}
	serial, err := new(Memo).Figure14c(parTestScale(), profiles, fractions, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := new(Memo).Figure14c(parTestScale(), profiles, fractions, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("Figure14c differs between 1 and 3 workers:\nserial: %+v\nparallel: %+v", serial, par)
	}
	// Each point against Execute on devices of their own.
	base, err := Execute(profiles[0], sanitize.Baseline(), 1.0, parTestScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, frac := range fractions {
		run, err := Execute(profiles[0], sanitize.SecSSD(), frac, parTestScale())
		if err != nil {
			t.Fatal(err)
		}
		if want := run.IOPS() / base.IOPS(); serial[i].NormIOPS != want {
			t.Errorf("fraction %v: sweep says %v, Execute per cell %v", frac, serial[i].NormIOPS, want)
		}
	}
}

// TestMemoSharesFigure14Cells: one memo behind Fig. 14(a) and 14(c), as
// reproduce's env holds, keeps 14(c)'s baseline and secSSD 1.0 cells
// from 14(a), and both figures equal their fresh-simulation results.
func TestMemoSharesFigure14Cells(t *testing.T) {
	sc := parTestScale()
	profiles := []workload.Profile{workload.Mobile()}
	fractions := []float64{0.6, 1.0}
	var m Memo
	rows, err := m.Figure14(sc, profiles, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.Figure14c(sc, profiles, fractions, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := len(m.cells), len(Policies())+1; n != want {
		t.Errorf("memo holds %d cells after 14(a) and 14(c), want %d (14(c) adds only secSSD at 0.6)", n, want)
	}
	freshRows, err := Figure14Parallel(sc, profiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	freshPts, err := new(Memo).Figure14c(sc, profiles, fractions, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, freshRows) || !reflect.DeepEqual(pts, freshPts) {
		t.Errorf("memoized figures differ from fresh ones:\n14(a) %+v\nfresh %+v\n14(c) %+v\nfresh %+v", rows, freshRows, pts, freshPts)
	}
}

// TestBatchingAblationWorkerInvariant is the golden determinism check
// for the amortization ablation: both the batch-off cells and the
// batch-on cell must be bit-stable between serial and 4-worker runs, and
// each cell must be the run ExecuteTraced makes on a device of its own.
func TestBatchingAblationWorkerInvariant(t *testing.T) {
	serial, err := BatchingAblation(parTestScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BatchingAblation(parTestScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("BatchingAblation differs between 1 and 4 workers:\nserial: %+v\nparallel: %+v", serial, par)
	}
	// Shape checks: the ladder ran all three cells and the batched cell
	// actually exercised coalesced pulses.
	if len(serial) != 3 || serial[0].Label != "disabled" || serial[2].Label != "batched" {
		t.Fatalf("unexpected cells: %+v", serial)
	}
	for _, c := range serial {
		if c.Run.Report.Requests == 0 {
			t.Fatalf("cell %s ran no requests", c.Label)
		}
	}
	if got := serial[2].Run.Report.Stats.PLockBatches; got == 0 {
		t.Fatalf("batched cell issued no coalesced pulses")
	}
	// Each cell adopted the device of the one before it — another plane
	// count, lock batching off then on — and must equal ExecuteTraced on
	// a device of its own.
	for _, c := range serial {
		cs := parTestScale()
		cs.Planes, cs.NoCachePipeline, cs.LockBatch = c.Planes, c.NoCachePipeline, c.LockBatch
		rec := cs.recorder()
		want, err := ExecuteTraced(workload.Mobile(), sanitize.SecSSD(), 1.0, cs, rec)
		if err != nil {
			t.Fatal(err)
		}
		if audit := rec.AuditLedger().Stats(rec.Horizon()); !reflect.DeepEqual(c.Run, want) || !reflect.DeepEqual(c.Audit, audit) {
			t.Errorf("cell %s differs from ExecuteTraced:\nladder:  %+v %+v\nalone: %+v %+v", c.Label, c.Run, c.Audit, want, audit)
		}
	}
}

// construct builds a cell's device, file system and generator on old's
// storage the way execute and drive do, with the file system on the
// device itself rather than a pipe, and returns them with the bytes that
// took.
func construct(t *testing.T, old retired, policy ftl.Policy, prof workload.Profile, sc Scale) (retired, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dev, err := ssd.NewFrom(old.dev, sc.Device(policy, nil))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := filesys.NewFrom(old.fs, dev, int64(dev.LogicalPages()), sc.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGeneratorFrom(old.gen, prof, fs, sc.PageBytes, sc.Seed)
	runtime.ReadMemStats(&after)
	return retired{dev: dev, fs: fs, gen: gen}, after.TotalAlloc - before.TotalAlloc
}

// lazyState sums nandtest.LazyState over the device.
func lazyState(dev *ssd.SSD) (stores, chunksUsed, chunksHeld int) {
	for _, c := range dev.Chips() {
		s, u, h := nandtest.LazyState(c)
		stores, chunksUsed, chunksHeld = stores+s, chunksUsed+u, chunksHeld+h
	}
	return stores, chunksUsed, chunksHeld
}

// TestGridConstructionFootprint is the canary for what the hand-over
// buys: in a serial grid only the first cell pays for the device and
// host tables.
func TestGridConstructionFootprint(t *testing.T) {
	sc := SmallScale()
	run := func(c retired) {
		t.Helper()
		if err := c.gen.Fill(sc.PrefillFraction); err != nil {
			t.Fatal(err)
		}
		c.dev.Mark()
		if err := c.gen.RunPages(sc.StudyPages); err != nil {
			t.Fatal(err)
		}
	}

	// A serial grid: every later cell builds on the one before it and
	// allocates at most 5 % of what the first cell did.
	var c retired
	var first uint64
	for i, g := range gridCells()[:10] {
		policy, _ := PolicyByName(g.policy)
		var bytes uint64
		c, bytes = construct(t, c, policy, g.prof, sc)
		if i == 0 {
			first = bytes
		}
		t.Logf("cell %d (%s/%s): %d bytes to build its device and host side, %.1f %% of the first cell's", i, g.prof.Name, g.policy, bytes, 100*float64(bytes)/float64(first))
		if bytes*20 > first && i > 0 {
			t.Errorf("cell %d allocated %d bytes building its device and host side, the first cell %d: want at most 5 %%", i, bytes, first)
		}
		run(c)
	}

	// A secSSD cell after a secSSD cell finds the flag-cell arena it needs.
	c, _ = construct(t, c, sanitize.SecSSD(), workload.Mobile(), sc)
	run(c)
	_, used, held := lazyState(c.dev)
	if used == 0 {
		t.Fatal("the secSSD cell locked no page")
	}
	c, _ = construct(t, c, sanitize.SecSSD(), workload.Mobile(), sc)
	if _, used, adopted := lazyState(c.dev); used != 0 || adopted != held {
		t.Errorf("device adopted from a secSSD cell: %d flag chunks in use, %d held; want 0 and the donor's %d", used, adopted, held)
	}
	run(c)
	if _, _, after := lazyState(c.dev); after != held {
		t.Errorf("the second secSSD cell grew the flag-cell arena from %d to %d chunks", held, after)
	}

	// A baseline cell after a cell that stored real payload bytes is still
	// a timing-only device (nand.TestTimingOnlyFootprint's condition).
	payload := make([]byte, sc.PageBytes)
	for i := range payload {
		payload[i] = byte(i) | 1
	}
	for lpa := int64(0); lpa < 64; lpa++ {
		if _, err := c.dev.Submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if stores, _, _ := lazyState(c.dev); stores == 0 {
		t.Fatal("payload writes created no payload store")
	}
	c, _ = construct(t, c, sanitize.Baseline(), workload.MailServer(), sc)
	run(c)
	if c.dev.FTL().Stats().GCCopies == 0 {
		t.Fatal("the baseline cell never garbage-collected")
	}
	if stores, used, _ := lazyState(c.dev); stores != 0 || used != 0 {
		t.Errorf("baseline cell on an adopted device: %d payload stores and %d flag chunks in use, want none", stores, used)
	}
}
