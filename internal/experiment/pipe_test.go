package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/blockio"
	"repro/internal/filesys"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fakeDevice counts the requests it executes, keeps them when asked to,
// and fails or panics at a chosen one (1-based; 0 never).
type fakeDevice struct {
	pages           int
	failAt, panicAt int
	record          bool
	onMark          func()

	n      int // requests executed, the failing one included
	marked int // n when Mark was called; -1 before
	reqs   []blockio.Request
}

var errFake = errors.New("fake device: media error")

// fakePanic is the value a fakeDevice panics with; a pointer, so the
// test can tell the original value from a copy or a wrapper.
type fakePanic struct{ at int }

func newFake() *fakeDevice { return &fakeDevice{pages: 16384, marked: -1} }

func (d *fakeDevice) Submit(req blockio.Request) (sim.Micros, error) {
	d.n++
	if d.n == d.failAt {
		return 0, errFake
	}
	if d.n == d.panicAt {
		panic(&fakePanic{d.n})
	}
	if d.record {
		d.reqs = append(d.reqs, req)
	}
	return 0, nil
}

func (d *fakeDevice) LogicalPages() int { return d.pages }

func (d *fakeDevice) Mark() {
	d.marked = d.n
	if d.onMark != nil {
		d.onMark()
	}
}

// pipeTestScale is a small host workload: on a fake of 16,384 pages,
// about 1,900 prefill and 1,400 study requests, several batches each.
func pipeTestScale() Scale {
	sc := SmallScale()
	sc.StudyPages = 3000
	return sc
}

// driveFake runs drive over d for MailServer at pipeTestScale.
func driveFake(d *fakeDevice) error {
	sc := pipeTestScale()
	_, err := drive(d, retired{}, workload.MailServer(), 1.0, sc, sc.StudyPages, nil)
	return err
}

// driveSerial is the cell body as one synchronous call chain, with no
// pipe: the reference drive must match.
func driveSerial(d *fakeDevice) error {
	sc := pipeTestScale()
	fs, err := filesys.New(d, int64(d.pages), sc.PageBytes)
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(workload.MailServer(), fs, sc.PageBytes, sc.Seed)
	if err := gen.Fill(sc.PrefillFraction); err != nil {
		return fmt.Errorf("experiment: prefill: %w", err)
	}
	d.Mark()
	if err := gen.RunPages(sc.StudyPages); err != nil {
		return fmt.Errorf("experiment: study: %w", err)
	}
	return nil
}

// phaseSizes returns the request counts of the test cell's prefill and
// study.
func phaseSizes(t *testing.T) (prefill, study int) {
	t.Helper()
	d := newFake()
	if err := driveFake(d); err != nil {
		t.Fatal(err)
	}
	if d.marked < 3*batchLen || d.n-d.marked < 3*batchLen {
		t.Fatalf("prefill %d and study %d requests: want several batches each", d.marked, d.n-d.marked)
	}
	return d.marked, d.n - d.marked
}

// TestPipeStopsAtDeviceError: a device that fails at request N has
// executed exactly N requests when drive returns, and drive returns the
// error the synchronous chain returns, wrapped with the phase that
// issued request N. Mark runs only once the prefill has drained.
func TestPipeStopsAtDeviceError(t *testing.T) {
	prefill, study := phaseSizes(t)
	for _, c := range []struct {
		name string
		at   int
	}{
		{"first request", 1},
		{"prefill batch edge", batchLen},
		{"mid prefill", prefill / 2},
		{"last prefill request", prefill},
		{"first study request", prefill + 1},
		{"mid study", prefill + study/2},
		{"last request", prefill + study},
	} {
		t.Run(c.name, func(t *testing.T) {
			piped, serial := newFake(), newFake()
			piped.failAt, serial.failAt = c.at, c.at
			got, want := driveFake(piped), driveSerial(serial)
			if want == nil || got == nil || got.Error() != want.Error() || !errors.Is(got, errFake) {
				t.Fatalf("error %v, want %v (wrapping %v)", got, want, errFake)
			}
			if piped.n != c.at || serial.n != c.at {
				t.Errorf("device executed %d requests (serial chain %d), want %d", piped.n, serial.n, c.at)
			}
			if piped.marked != serial.marked {
				t.Errorf("Mark after %d requests, serial chain after %d", piped.marked, serial.marked)
			}
		})
	}
}

// TestPipeDevicePanicReachesCaller: a device panic surfaces on drive's
// goroutine with its original value, after exactly the requests before
// it.
func TestPipeDevicePanicReachesCaller(t *testing.T) {
	prefill, study := phaseSizes(t)
	for _, at := range []int{1, prefill / 2, prefill + study/2} {
		d := newFake()
		d.panicAt = at
		r := func() (r any) {
			defer func() { r = recover() }()
			_ = driveFake(d)
			return nil
		}()
		if p, ok := r.(*fakePanic); !ok || p.at != at {
			t.Errorf("panic at request %d: recovered %#v, want the device's *fakePanic", at, r)
		}
		if d.n != at {
			t.Errorf("panic at request %d: device executed %d", at, d.n)
		}
	}
}

// goroutinesDownTo polls runtime.NumGoroutine for up to a second until
// it is at most want, and returns the last count: a device goroutine
// that has closed its done channel still counts until it has returned.
func goroutinesDownTo(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipeDeviceFailureOutranksHostPanic: when the host panics after
// issuing a request the device fails on, the phase ends with the
// device's error or panic, as on one goroutine, where that request would
// have ended the run first. The failing request may already be with the
// device or still in the host's batch. With no device failure the host's
// panic propagates as it is.
func TestPipeDeviceFailureOutranksHostPanic(t *testing.T) {
	for _, c := range []struct {
		name            string
		failAt, panicAt int
		issued          int // requests the host issues before it panics
	}{
		{"error handed over", 10, 0, 2 * batchLen},
		{"error in the host's batch", 10, 0, 20},
		{"device panic handed over", 0, batchLen + 3, 2*batchLen + 5},
		{"no device failure", 0, 0, 2*batchLen + 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newFake()
			d.failAt, d.panicAt = c.failAt, c.panicAt
			p := newPipe(d, nil)
			defer p.stop()
			var err error
			r := func() (r any) {
				defer func() { r = recover() }()
				err = p.phase("study", func() error {
					for range c.issued {
						if _, err := p.Submit(blockio.Request{Op: blockio.OpWrite, Pages: 1}); err != nil {
							return err
						}
					}
					panic("host gave up")
				})
				return nil
			}()
			switch {
			case c.failAt > 0:
				if r != nil || !errors.Is(err, errFake) || err.Error() != "experiment: study: "+errFake.Error() {
					t.Errorf("recovered %v, error %v: want the device's error wrapped with the phase", r, err)
				}
				if d.n != c.failAt {
					t.Errorf("device executed %d requests, want %d", d.n, c.failAt)
				}
			case c.panicAt > 0:
				if fp, ok := r.(*fakePanic); !ok || fp.at != c.panicAt {
					t.Errorf("recovered %#v: want the device's *fakePanic", r)
				}
			default:
				if r != "host gave up" || d.n != c.issued {
					t.Errorf("recovered %v after %d of %d requests: want the host's panic after all of them", r, d.n, c.issued)
				}
			}
		})
	}
}

// TestPipeLeavesNoGoroutine: the device goroutine has returned when
// drive does — after a success, a device error, a device panic, and a
// panic on the host side while the device goroutine waits for work.
func TestPipeLeavesNoGoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	prefill, _ := phaseSizes(t)
	for _, c := range []struct {
		name string
		set  func(d *fakeDevice)
	}{
		{"success", func(*fakeDevice) {}},
		{"device error", func(d *fakeDevice) { d.failAt = prefill / 2 }},
		{"device panic", func(d *fakeDevice) { d.panicAt = prefill + 10 }},
		{"host panic", func(d *fakeDevice) { d.onMark = func() { panic("host gave up") } }},
	} {
		d := newFake()
		c.set(d)
		func() {
			defer func() { _ = recover() }()
			_ = driveFake(d)
		}()
		if n := goroutinesDownTo(start); n > start {
			t.Errorf("%s: %d goroutines a second after drive returned, %d before", c.name, n, start)
		}
	}
}

// TestPipeStreamMatchesRecord: the stream a device receives through the
// pipe is the stream workload.Record captures on one goroutine, request
// for request, across batch boundaries and the final partial batch.
func TestPipeStreamMatchesRecord(t *testing.T) {
	const pages, pageBytes, volume, secure, seed = 16384, 4096, 20000, 0.8, 5
	for _, prof := range workload.Profiles() {
		want, err := workload.Record(prof, pages, pageBytes, volume, secure, seed)
		if err != nil {
			t.Fatal(err)
		}
		d := newFake()
		d.record = true
		sc := Scale{PageBytes: pageBytes, Seed: seed} // no prefill: Record has none
		if _, err := drive(d, retired{}, prof, secure, sc, volume, nil); err != nil {
			t.Fatal(err)
		}
		if len(d.reqs) <= batchLen || len(d.reqs)%batchLen == 0 {
			t.Fatalf("%s: %d requests do not end in a partial batch after a full one", prof.Name, len(d.reqs))
		}
		if !reflect.DeepEqual(d.reqs, want.Requests) {
			t.Errorf("%s: %d requests through the pipe differ from Record's %d", prof.Name, len(d.reqs), len(want.Requests))
		}
	}
}

// TestPipeRejectsPayload: a request with a payload panics on the host,
// since the pipe would share the caller's buffer with the device stage.
func TestPipeRejectsPayload(t *testing.T) {
	d := newFake()
	p := newPipe(d, nil)
	defer p.stop()
	defer func() {
		if recover() == nil {
			t.Error("a request with a payload went through the pipe")
		}
	}()
	_, _ = p.Submit(blockio.Request{Op: blockio.OpWrite, Pages: 1, Data: make([]byte, 4096)})
}

// TestPipeReusesRetiredBatches: a cell retires its pipe's batch buffers
// to the pool with the rest of its storage, and a pipe built from the set
// the pool hands out allocates less than one buffer's worth, not a set of
// its own.
func TestPipeReusesRetiredBatches(t *testing.T) {
	emptyPool()
	executeCell(t, gridCell{workload.MailServer(), "baseline"}, pipeTestScale())
	r := take()
	if len(r.batches) != pipeBatches {
		t.Fatalf("retired %d batch buffers, want %d", len(r.batches), pipeBatches)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := newPipe(newFake(), r.batches)
	p.stop()
	runtime.ReadMemStats(&after)
	buffer := uint64(batchLen * unsafe.Sizeof(blockio.Request{}))
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= buffer {
		t.Errorf("a pipe on retired buffers allocated %d bytes, one buffer is %d", grew, buffer)
	}
	for i, b := range p.bufs {
		if &b[:1][0] != &r.batches[i][:1][0] {
			t.Errorf("batch buffer %d was allocated anew", i)
		}
	}
}
