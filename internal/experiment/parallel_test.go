package experiment

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

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

// executeCell runs a cell through Execute, on whatever storage the pool
// offers.
func executeCell(t *testing.T, c gridCell, sc Scale) Run {
	t.Helper()
	policy, err := PolicyByName(c.policy)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Execute(c.prof, policy, 1.0, sc)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.prof.Name, c.policy, err)
	}
	return run
}

// emptyPool drops every retired cell the pool holds, so the next cell
// builds on storage of its own.
func emptyPool() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.free = nil
}

// pooled returns the number of retired cells waiting in the pool.
func pooled() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.free)
}

// freshCell is executeCell on a device of its own.
func freshCell(t *testing.T, c gridCell, sc Scale) Run {
	t.Helper()
	emptyPool()
	return executeCell(t, c, sc)
}

// TestFigure14WorkerInvariant is the golden determinism check for the
// system-level grid, with Execute on a device of its own as the
// reference for every one of the 20 cells: the grid at 1 and at 3
// workers, and the cells pushed one after another through the pool in
// reversed and in interleaved order — so every cell is built on the
// storage some other workload × policy cell used up — must reproduce it
// exactly (reflect.DeepEqual down to every latency percentile in the
// reports).
func TestFigure14WorkerInvariant(t *testing.T) {
	sc := parTestScale()
	cells := gridCells()
	want := make([]Run, len(cells))
	for i, c := range cells {
		want[i] = freshCell(t, c, sc)
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
		emptyPool()
		for k := range cells {
			i := order(k)
			if got := executeCell(t, cells[i], sc); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s order, step %d: cell %s/%s on an adopted device differs from Execute:\nadopted: %+v\nExecute: %+v",
					name, k, cells[i].prof.Name, cells[i].policy, got, want[i])
			}
			if n := pooled(); n != 1 {
				t.Fatalf("%s order, step %d: %d cells waiting in the pool, want the one just retired", name, k, n)
			}
		}
	}
}

// TestPoolCrossesConfigurations: a cell built on the storage of a cell of
// another configuration — another scale, a traced run, two planes, fault
// injection, lock batching, a larger device — is the run a fresh device
// makes.
func TestPoolCrossesConfigurations(t *testing.T) {
	sc := parTestScale()
	target := gridCell{workload.DBServer(), "secSSD"}
	want := freshCell(t, target, sc)
	donors := map[string]func(sc Scale) (Scale, trace.Collector){
		"SmallScale": func(Scale) (Scale, trace.Collector) { return SmallScale(), nil },
		"traced":     func(sc Scale) (Scale, trace.Collector) { return sc, sc.recorder() },
		"two planes": func(sc Scale) (Scale, trace.Collector) { sc.Planes = 2; return sc, nil },
		"faults":     func(sc Scale) (Scale, trace.Collector) { sc.FaultRate = 1e-3; return sc, nil },
		"batching": func(sc Scale) (Scale, trace.Collector) {
			sc.Planes, sc.LockBatch = 2, ftl.LockBatchConfig{Enabled: true, Deadline: 2000, Threshold: 96}
			return sc, nil
		},
		"larger device": func(sc Scale) (Scale, trace.Collector) {
			sc.BlocksPerChip, sc.WLsPerBlock, sc.StudyPages = 32, 24, 500
			return sc, nil
		},
	}
	for name, config := range donors {
		emptyPool()
		dsc, tr := config(sc)
		if _, err := ExecuteTraced(workload.Mobile(), sanitize.SecSSD(), 1.0, dsc, tr); err != nil {
			t.Fatalf("%s donor: %v", name, err)
		}
		if n := pooled(); n != 1 {
			t.Fatalf("%s donor: %d cells waiting in the pool, want 1", name, n)
		}
		if got := executeCell(t, target, sc); !reflect.DeepEqual(got, want) {
			t.Errorf("on storage retired by a %s cell, %s/%s differs from a fresh device's:\nadopted: %+v\nfresh:   %+v",
				name, target.prof.Name, target.policy, got, want)
		}
	}
}

// TestPoolDropsCollector: a traced cell's retired storage does not keep
// its collector reachable, so a recorder and its events are garbage once
// the caller drops them, while the set waits in the pool.
func TestPoolDropsCollector(t *testing.T) {
	emptyPool()
	sc := parTestScale()
	collected := make(chan struct{}, 1)
	func() {
		rec := sc.recorder()
		runtime.SetFinalizer(rec, func(*trace.Recorder) { collected <- struct{}{} })
		if _, err := ExecuteTraced(workload.Mobile(), sanitize.SecSSD(), 1.0, sc, rec); err != nil {
			t.Fatal(err)
		}
	}()
	if n := pooled(); n != 1 {
		t.Fatalf("%d cells waiting in the pool after a traced cell, want 1", n)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Error("the recorder of a finished traced cell is still reachable from the pool")
}

// countingObserver counts the file events it is told of.
type countingObserver struct{ events int }

func (o *countingObserver) FileCreated(uint64, bool) { o.events++ }
func (o *countingObserver) FileOverwritten(uint64)   { o.events++ }
func (o *countingObserver) FileDeleted(uint64)       { o.events++ }

// TestPoolDropsObserver: Drive's retired host storage keeps neither its
// device nor its file-system observer reachable (the §3 study's are its
// SSD and tracker), while the set waits in the pool.
func TestPoolDropsObserver(t *testing.T) {
	emptyPool()
	collected := make(chan string, 2)
	func() {
		dev, obs := newFake(), &countingObserver{}
		runtime.SetFinalizer(dev, func(*fakeDevice) { collected <- "device" })
		runtime.SetFinalizer(obs, func(*countingObserver) { collected <- "observer" })
		sc := pipeTestScale()
		if err := Drive(dev, workload.MailServer(), sc, sc.StudyPages, obs); err != nil {
			t.Fatal(err)
		}
		if obs.events == 0 || dev.n == 0 {
			t.Fatalf("the observer saw %d events, the device %d requests", obs.events, dev.n)
		}
	}()
	if n := pooled(); n != 1 {
		t.Fatalf("%d sets waiting in the pool after Drive, want 1", n)
	}
	for left, i := 2, 0; left > 0; i++ {
		if i == 20 {
			t.Fatalf("%d of the device and the observer still reachable from the pool", left)
		}
		runtime.GC()
		select {
		case <-collected:
			left--
		case <-time.After(50 * time.Millisecond):
		}
	}
	emptyPool()
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

// TestPoolRetiresOnlyCompletedRuns: a cell that fails to build, or
// panics half way, takes a waiting cell's storage and hands nothing on;
// and the pool never holds more than GOMAXPROCS sets, however many
// goroutines retire into it at once.
func TestPoolRetiresOnlyCompletedRuns(t *testing.T) {
	sc := parTestScale()
	c := gridCell{workload.Mobile(), "secSSD"}
	policy := func() ftl.Policy { p, _ := PolicyByName(c.policy); return p }

	freshCell(t, c, sc)
	bad := sc
	bad.BlocksPerChip = 0
	if _, err := Execute(c.prof, policy(), 1.0, bad); err == nil {
		t.Error("a zero-block device was built")
	}
	if n := pooled(); n != 0 {
		t.Errorf("%d cells waiting after a cell that could not build took the only one", n)
	}

	executeCell(t, c, sc)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the collector's panic did not reach the caller")
			}
		}()
		_, _ = ExecuteTraced(c.prof, policy(), 1.0, sc, &failingCollector{left: 500})
	}()
	if n := pooled(); n != 0 {
		t.Errorf("%d cells waiting after a cell that panicked took the only one", n)
	}

	limit := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for i := 0; i < 2*limit+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			retire(retired{batches: make([][]blockio.Request, pipeBatches)})
			if n := pooled(); n > limit {
				t.Errorf("%d cells waiting in a pool capped at GOMAXPROCS = %d", n, limit)
			}
		}()
	}
	wg.Wait()
	if n := pooled(); n != limit {
		t.Errorf("%d cells waiting after %d were retired, want the cap %d", n, 2*limit+1, limit)
	}
	emptyPool()
}

// TestPoolSecondExecuteAllocatesLittle: a second Execute of a cell builds
// on the first one's storage, so it allocates less than a tenth of what
// the first did — also for an erSSD cell, whose evacuations and GC passes
// relocate through the run scratch carried over by ftl.NewFrom and
// ssd.NewFrom.
func TestPoolSecondExecuteAllocatesLittle(t *testing.T) {
	sc := SmallScale()
	for _, c := range []gridCell{{workload.MailServer(), "secSSD"}, {workload.DBServer(), "erSSD"}} {
		t.Run(c.prof.Name+"/"+c.policy, func(t *testing.T) {
			emptyPool()
			var bytes [2]uint64
			for i := range bytes {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				executeCell(t, c, sc)
				runtime.ReadMemStats(&after)
				bytes[i] = after.TotalAlloc - before.TotalAlloc
			}
			t.Logf("first Execute %d bytes, second %d", bytes[0], bytes[1])
			if bytes[1]*10 >= bytes[0] {
				t.Errorf("the second Execute allocated %d bytes, the first %d: want less than a tenth", bytes[1], bytes[0])
			}
		})
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
// storage the way ExecuteTraced and drive do, with the file system on the
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
