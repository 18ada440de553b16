package experiment

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/blockio"
	"repro/internal/filesys"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A cell runs as two stages. The caller's goroutine is the host: the
// workload generator and the file system, which submit into a pipe. One
// device goroutine per cell drains the pipe's batches, in order, through
// the device's Submit. The host never reads a completion time (filesys
// drops them), so the request stream is the same function of (profile,
// seed, logical pages, page size, secure fraction) as on one goroutine,
// the device sees the same Submit calls in the same order, and every
// simulated value is bit-identical; the host only runs up to a few
// batches ahead.
const (
	// batchLen is the number of requests the host hands over at a time.
	batchLen = 256
	// pipeBatches is how many batch buffers circulate between the two
	// stages: one the host fills, the rest queued for or being drained by
	// the device.
	pipeBatches = 3
)

// errDeviceStopped is what the pipe answers the host once the device
// stage has stopped. It never leaves drive: the settle that follows
// returns the device's own error, or re-raises its panic.
var errDeviceStopped = errors.New("experiment: device stage stopped")

// pipe is a filesys.Device that batches timing-only requests for a
// device goroutine of its own. Every send on full and empty finds room,
// since each channel has a slot for every buffer, and the device
// goroutine lives until stop whatever the device does, so the host never
// blocks on a dead stage.
type pipe struct {
	dev   filesys.Device
	batch []blockio.Request      // the batch the host is filling
	bufs  [][]blockio.Request    // every batch buffer, for the hand-over
	full  chan []blockio.Request // host to device, in submission order
	empty chan []blockio.Request // drained buffers back to the host
	done  chan struct{}          // closed when the device goroutine returns
	// failed is set once the device stage stops executing: at dev's first
	// Submit error (err) or panic (panicked), or at stop. err and panicked
	// are the device goroutine's until a buffer it returns is received.
	failed   atomic.Bool
	err      error
	panicked any
}

// newPipe starts a device goroutine that drains batches into dev. bufs
// are the batch buffers of a retired pipe, reused where present. The
// caller must stop the pipe on every path.
func newPipe(dev filesys.Device, bufs [][]blockio.Request) *pipe {
	p := &pipe{
		dev:   dev,
		bufs:  make([][]blockio.Request, 0, pipeBatches),
		full:  make(chan []blockio.Request, pipeBatches),
		empty: make(chan []blockio.Request, pipeBatches),
		done:  make(chan struct{}),
	}
	for i := 0; i < pipeBatches; i++ {
		var b []blockio.Request
		if i < len(bufs) {
			b = bufs[i][:0]
		} else {
			b = make([]blockio.Request, 0, batchLen)
		}
		p.bufs = append(p.bufs, b)
		p.empty <- b
	}
	p.batch = <-p.empty
	go p.run()
	return p
}

// Submit queues req for the device and returns at once with a zero
// completion time. The pipe holds requests by value, so a payload would
// be shared with a caller that may reuse it: only timing-only requests
// may pass.
func (p *pipe) Submit(req blockio.Request) (sim.Micros, error) {
	if req.Data != nil {
		panic("experiment: pipe given a request with a payload")
	}
	p.batch = append(p.batch, req)
	if len(p.batch) == batchLen {
		p.full <- p.batch
		p.batch = <-p.empty
		if p.failed.Load() {
			return 0, errDeviceStopped
		}
	}
	return 0, nil
}

// settle waits until the device has drained every request submitted so
// far. It re-raises a device panic with its original value, and returns
// the device's first Submit error, which came earlier in the stream than
// anything the host did after it; otherwise it returns hostErr.
func (p *pipe) settle(hostErr error) error {
	if len(p.batch) > 0 {
		p.full <- p.batch
		p.batch = <-p.empty
	}
	// Every other buffer is back once the device has drained it.
	var back [pipeBatches - 1][]blockio.Request
	for i := range back {
		back[i] = <-p.empty
	}
	for _, b := range back {
		p.empty <- b
	}
	if p.panicked != nil {
		panic(p.panicked)
	}
	if p.err != nil {
		return p.err
	}
	return hostErr
}

// phase runs one phase of the host stage, then settles the pipe behind
// it, wrapping a device error with the phase's name. On one goroutine
// the first failing request ends the run, so the device's failure
// outranks whatever the host did after it: if the host panics, the
// requests it issued before are still executed, and a device panic or
// error among them (or earlier) is the phase's outcome; only a host
// panic with no device failure before it propagates as it is.
func (p *pipe) phase(name string, host func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if err = p.settle(nil); err == nil {
				panic(r)
			}
			err = fmt.Errorf("experiment: %s: %w", name, err)
		}
	}()
	if err := p.settle(host()); err != nil {
		return fmt.Errorf("experiment: %s: %w", name, err)
	}
	return nil
}

// stop ends the device goroutine and waits for it: batches still queued
// (only when the host stage is unwinding from a panic or error) are
// dropped, not executed.
func (p *pipe) stop() {
	p.failed.Store(true)
	close(p.full)
	<-p.done
	p.dev = nil // a retired file system keeps the pipe, not the device
}

// run is the device stage.
func (p *pipe) run() {
	defer close(p.done)
	for b := range p.full {
		if !p.failed.Load() {
			p.drain(b)
		}
		p.empty <- b[:0]
	}
}

// drain submits one batch to the device, stopping the stage at the first
// error or panic.
func (p *pipe) drain(b []blockio.Request) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
			p.failed.Store(true)
		}
	}()
	for _, req := range b {
		if _, err := p.dev.Submit(req); err != nil {
			p.err = err
			p.failed.Store(true)
			return
		}
	}
}

// Device is what a host stage needs of its device: *ssd.SSD, the §3
// study's device, or a test's fake.
type Device interface {
	filesys.Device
	LogicalPages() int
	// Mark starts the measured window; drive calls it between the
	// prefill and the study, once the device has drained the prefill.
	Mark()
}

// drive runs a cell's host stage — the file system and generator built
// on old's storage, observed by obs (may be nil), the prefill, then the
// study — over a pipe into dev. Each phase ends with the pipe settled, so
// the prefill's requests are all executed before Mark, and a device error
// is wrapped with the phase that issued the request. The device goroutine
// has returned when drive does, on every path. The storage to retire, the
// pipe's batches and old's device included, reaches neither dev nor obs.
func drive(dev Device, old retired, prof workload.Profile, secureFraction float64, sc Scale, studyPages uint64, obs filesys.Observer) (retired, error) {
	p := newPipe(dev, old.batches)
	defer p.stop()
	fs, err := filesys.NewFrom(old.fs, p, int64(dev.LogicalPages()), sc.PageBytes)
	if err != nil {
		return retired{}, err
	}
	fs.SetObserver(obs)
	gen := workload.NewGeneratorFrom(old.gen, prof, fs, sc.PageBytes, sc.Seed)
	gen.SecureFraction = secureFraction

	// Prefill through the generator (creates/appends only) so steady
	// state starts from the workload's own file population, then measure.
	if err := p.phase("prefill", func() error { return gen.Fill(sc.PrefillFraction) }); err != nil {
		return retired{}, err
	}
	dev.Mark()
	if err := p.phase("study", func() error { return gen.RunPages(studyPages) }); err != nil {
		return retired{}, err
	}
	fs.SetObserver(nil)
	return retired{dev: old.dev, fs: fs, gen: gen, batches: p.bufs}, nil
}

// Drive is drive for a device that is not a cell's, at secure fraction
// 1, on storage from the pool; sc sets the page size, seed and prefill.
func Drive(dev Device, prof workload.Profile, sc Scale, studyPages uint64, obs filesys.Observer) error {
	host, err := drive(dev, take(), prof, 1, sc, studyPages, obs)
	if err == nil {
		retire(host)
	}
	return err
}
