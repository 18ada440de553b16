package filesys

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/blockio"
	"repro/internal/sim"
)

// recordingDev captures submitted requests.
type recordingDev struct {
	reqs []blockio.Request
	fail error
}

func (d *recordingDev) Submit(req blockio.Request) (sim.Micros, error) {
	if d.fail != nil {
		return 0, d.fail
	}
	d.reqs = append(d.reqs, req)
	return 0, nil
}

func newFS(t *testing.T) (*FS, *recordingDev) {
	t.Helper()
	dev := &recordingDev{}
	fs, err := New(dev, 1024, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 10, 4096); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := New(&recordingDev{}, 0, 4096); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestCreateAppendIssuesSecureWrites(t *testing.T) {
	fs, dev := newFS(t)
	f, err := fs.Create("mail.eml", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(f, 4); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 4 {
		t.Fatalf("file has %d pages, want 4", f.Pages())
	}
	if len(dev.reqs) == 0 {
		t.Fatal("no write issued")
	}
	var pages int32
	for _, r := range dev.reqs {
		if r.Op != blockio.OpWrite {
			t.Fatalf("unexpected op %v", r.Op)
		}
		if r.Insecure {
			t.Fatal("default file must issue secure writes")
		}
		if r.FileID != f.ID {
			t.Fatal("file annotation missing")
		}
		pages += r.Pages
	}
	if pages != 4 {
		t.Fatalf("wrote %d pages, want 4", pages)
	}
}

func TestOInsecPropagates(t *testing.T) {
	fs, dev := newFS(t)
	f, _ := fs.Create("cache.tmp", OInsec)
	fs.Append(f, 2)
	for _, r := range dev.reqs {
		if !r.Insecure {
			t.Fatal("O_INSEC file must issue insecure writes")
		}
	}
	fs.Delete(f)
	last := dev.reqs[len(dev.reqs)-1]
	if last.Op != blockio.OpTrim || !last.Insecure {
		t.Fatal("O_INSEC delete must trim insecurely")
	}
}

func TestCreateDuplicateRejected(t *testing.T) {
	fs, _ := newFS(t)
	fs.Create("a", 0)
	if _, err := fs.Create("a", 0); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestContiguousAllocationCoalesces(t *testing.T) {
	fs, dev := newFS(t)
	f, _ := fs.Create("big", 0)
	if err := fs.Append(f, 64); err != nil {
		t.Fatal(err)
	}
	// Fresh FS: one contiguous extent -> exactly one write request.
	if len(dev.reqs) != 1 {
		t.Fatalf("expected 1 coalesced write, got %d", len(dev.reqs))
	}
	if dev.reqs[0].Pages != 64 {
		t.Fatalf("coalesced write %d pages", dev.reqs[0].Pages)
	}
}

func TestOverwriteHitsSameLPAs(t *testing.T) {
	fs, dev := newFS(t)
	f, _ := fs.Create("db.dat", 0)
	fs.Append(f, 8)
	firstLPA := dev.reqs[0].LPA
	dev.reqs = nil
	if err := fs.Overwrite(f, 2, 3); err != nil {
		t.Fatal(err)
	}
	if len(dev.reqs) != 1 || dev.reqs[0].LPA != firstLPA+2 || dev.reqs[0].Pages != 3 {
		t.Fatalf("overwrite requests %v", dev.reqs)
	}
	if err := fs.Overwrite(f, 6, 3); err == nil {
		t.Fatal("out-of-range overwrite accepted")
	}
}

func TestReadBounds(t *testing.T) {
	fs, dev := newFS(t)
	f, _ := fs.Create("r", 0)
	fs.Append(f, 4)
	dev.reqs = nil
	if err := fs.Read(f, 1, 2); err != nil {
		t.Fatal(err)
	}
	if len(dev.reqs) != 1 || dev.reqs[0].Op != blockio.OpRead {
		t.Fatalf("reqs %v", dev.reqs)
	}
	err := fs.Read(f, 3, 2)
	if err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if want := fmt.Sprintf("file %d ", f.ID); !strings.Contains(err.Error(), want) {
		t.Fatalf("range error %q does not name the file (%q)", err, want)
	}
}

func TestDeleteTrimsAndFrees(t *testing.T) {
	fs, dev := newFS(t)
	f, _ := fs.Create("gone", 0)
	fs.Append(f, 10)
	before := fs.FreePages()
	dev.reqs = nil
	if err := fs.Delete(f); err != nil {
		t.Fatal(err)
	}
	if fs.FreePages() != before+10 {
		t.Fatal("pages not freed")
	}
	var trimmed int32
	for _, r := range dev.reqs {
		if r.Op != blockio.OpTrim {
			t.Fatalf("unexpected op %v", r.Op)
		}
		trimmed += r.Pages
	}
	if trimmed != 10 {
		t.Fatalf("trimmed %d pages, want 10", trimmed)
	}
	if _, ok := fs.Lookup("gone"); ok {
		t.Fatal("file still visible")
	}
	if err := fs.Delete(f); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete should fail")
	}
}

func TestNoSpace(t *testing.T) {
	dev := &recordingDev{}
	fs, _ := New(dev, 8, 4096)
	f, _ := fs.Create("fill", 0)
	if err := fs.Append(f, 8); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(f, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// Deleting makes room again.
	if err := fs.Delete(f); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Create("fill2", 0)
	if err := fs.Append(g, 8); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceErrorPropagates(t *testing.T) {
	dev := &recordingDev{fail: errors.New("boom")}
	fs, _ := New(dev, 64, 4096)
	f, _ := fs.Create("x", 0)
	if err := fs.Append(f, 1); err == nil {
		t.Fatal("device error swallowed")
	}

	// A rejected trim still frees the file's pages: the discard is
	// advisory, the unlink is not.
	dev.fail = nil
	fs, _ = New(dev, 64, 4096)
	g := fs.CreateAnon(0)
	h := fs.CreateAnon(0)
	for i := 0; i < 3; i++ { // interleaved: g's pages are three extents
		if err := fs.Append(g, 2); err != nil {
			t.Fatal(err)
		}
		if err := fs.Append(h, 1); err != nil {
			t.Fatal(err)
		}
	}
	dev.fail = errors.New("trim rejected")
	if err := fs.Delete(g); !errors.Is(err, dev.fail) {
		t.Fatalf("Delete returned %v, want the device's error", err)
	}
	if fs.FreePages() != 64-3 {
		t.Fatalf("%d pages free after a rejected trim, want %d", fs.FreePages(), 64-3)
	}
	dev.fail = nil
	k := fs.CreateAnon(0)
	if err := fs.Append(k, 64-3); err != nil {
		t.Fatalf("the deleted file's pages cannot be allocated again: %v", err)
	}
}

func TestReuseAfterDeleteFragmentsGracefully(t *testing.T) {
	fs, dev := newFS(t)
	var files []*File
	for i := 0; i < 8; i++ {
		f, _ := fs.Create(name(i), 0)
		fs.Append(f, 16)
		files = append(files, f)
	}
	// Delete every other file, then allocate a large one across the holes.
	for i := 0; i < 8; i += 2 {
		fs.Delete(files[i])
	}
	dev.reqs = nil
	big, _ := fs.Create("big", 0)
	if err := fs.Append(big, 60); err != nil {
		t.Fatal(err)
	}
	var pages int32
	for _, r := range dev.reqs {
		pages += r.Pages
	}
	if pages != 60 {
		t.Fatalf("wrote %d pages, want 60", pages)
	}
}

func name(i int) string { return string(rune('a'+i)) + ".dat" }

// refAllocator is the allocator as it was before it learned to skip
// bitmap words: next-fit, testing one page per step. It lives on here as
// the specification the word-skipping FS.alloc is compared with.
type refAllocator struct {
	used   []bool
	cursor int64
	free   int64
}

func newRefAllocator(total int64) *refAllocator {
	return &refAllocator{used: make([]bool, total), free: total}
}

func (r *refAllocator) alloc(n int) []int64 {
	if int64(n) > r.free {
		return nil
	}
	out := make([]int64, 0, n)
	for len(out) < n {
		if !r.used[r.cursor] {
			r.used[r.cursor] = true
			out = append(out, r.cursor)
		}
		r.cursor++
		if r.cursor >= int64(len(r.used)) {
			r.cursor = 0
		}
	}
	r.free -= int64(n)
	return out
}

func (r *refAllocator) release(pages []int64) {
	for _, p := range pages {
		r.used[p] = false
	}
	r.free += int64(len(pages))
}

// Property: allocation never hands out a page twice, frees return
// exactly what was taken, free-page accounting is exact, and every
// allocation is page for page the one the bit-at-a-time reference makes —
// across wrap-around at the end of the device, on capacities that do and
// do not fill their last bitmap word.
func TestAllocatorConsistencyProperty(t *testing.T) {
	fn := func(seed int64, steps uint8, capacity uint8) bool {
		total := []int64{256, 200, 64, 65, 130, 7}[int(capacity)%6]
		dev := &recordingDev{}
		fs, _ := New(dev, total, 4096)
		ref := newRefAllocator(total)
		rng := rand.New(rand.NewSource(seed))
		owned := map[int64]uint64{} // page -> file
		var files []*File
		for s := 0; s < 3*int(steps); s++ {
			switch rng.Intn(3) {
			case 0:
				f, err := fs.Create(randName(rng), 0)
				if err == nil {
					files = append(files, f)
				}
			case 1:
				if len(files) == 0 {
					continue
				}
				f := files[rng.Intn(len(files))]
				before := f.Pages()
				n := rng.Intn(20) + 1
				want := ref.alloc(n)
				if err := fs.Append(f, n); err != nil {
					if !errors.Is(err, ErrNoSpace) || want != nil {
						return false
					}
					continue
				}
				got := f.Extents()[before:]
				if !slices.Equal(got, want) {
					return false // diverged from the reference
				}
				for _, p := range got {
					if _, taken := owned[p]; taken || p >= total {
						return false // double or out-of-range allocation
					}
					owned[p] = f.ID
				}
			case 2:
				if len(files) == 0 {
					continue
				}
				i := rng.Intn(len(files))
				f := files[i]
				pages := f.Extents()
				for _, p := range pages {
					delete(owned, p)
				}
				ref.release(pages)
				if err := fs.Delete(f); err != nil {
					return false
				}
				files = append(files[:i], files[i+1:]...)
			}
			if fs.FreePages() != ref.free || fs.scan != ref.cursor {
				return false
			}
		}
		return fs.FreePages() == fs.TotalPages()-int64(len(owned))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFileSizeof pins the File value every issued ID keeps for the life
// of the file system (a MailServer cell at default scale issues ≈ 140 k).
func TestFileSizeof(t *testing.T) {
	if got := unsafe.Sizeof(File{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(File{}) = %d, want 32", got)
	}
}

// nullDev accepts every request and keeps nothing.
type nullDev struct{ requests int }

func (d *nullDev) Submit(blockio.Request) (sim.Micros, error) {
	d.requests++
	return 0, nil
}

// fragmentedFS returns a file system over a null device whose free space
// is single-page holes, so that everything allocated next is one request
// per page.
func fragmentedFS(t *testing.T, total int64) (*FS, *nullDev) {
	t.Helper()
	dev := &nullDev{}
	fs, err := New(dev, total, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < total; i++ {
		f := fs.CreateAnon(0)
		if err := fs.Append(f, 1); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := fs.Delete(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fs, dev
}

// The request path allocates nothing: reading, overwriting, deleting and
// appending walk or extend the file's page chain, and a create takes a
// File from the current page of the file table, which allocates once per
// idPage IDs.
func TestRequestPathDoesNotAllocate(t *testing.T) {
	const runs = 50
	fs, dev := fragmentedFS(t, 4096)
	f := fs.CreateAnon(0)
	if err := fs.Append(f, 64); err != nil {
		t.Fatal(err)
	}
	victims := make([]*File, runs+1) // AllocsPerRun calls once to warm up
	for i := range victims {
		victims[i] = fs.CreateAnon(0)
		if err := fs.Append(victims[i], 8); err != nil {
			t.Fatal(err)
		}
	}
	g := fs.CreateAnon(0)
	before := dev.requests
	next := 0
	for _, c := range []struct {
		name     string
		requests int
		op       func() error
	}{
		{"Read", 48, func() error { return fs.Read(f, 8, 48) }},
		{"Overwrite", 48, func() error { return fs.Overwrite(f, 8, 48) }},
		{"Delete", 8, func() error { next++; return fs.Delete(victims[next-1]) }},
		{"Append", 1, func() error { return fs.Append(g, 1) }},
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.0f times per call", c.name, allocs)
		}
		if got := dev.requests - before; got != c.requests*(runs+1) {
			t.Errorf("%s: %d requests, want %d fragmented ones per call", c.name, got/(runs+1), c.requests)
		}
		before = dev.requests
	}
	if g.Pages() != runs+1 {
		t.Fatalf("appended file has %d pages, want %d", g.Pages(), runs+1)
	}

	// Creates up to the end of the current file-table page allocate
	// nothing; the next idPage creates allocate that page (and, at most
	// once, room in the table for more pages).
	mallocs := func(op func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if n := mallocs(func() {
		for fs.nextID%idPage != 1 {
			fs.CreateAnon(0)
		}
	}); n != 0 {
		t.Errorf("creates within a file-table page allocated %d times", n)
	}
	if n := mallocs(func() {
		for i := 0; i < idPage; i++ {
			fs.CreateAnon(0)
		}
	}); n == 0 || n > 2 {
		t.Errorf("%d creates allocated %d times, want one file-table page", idPage, n)
	}
}

func randName(rng *rand.Rand) string {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// dataDev implements DataDevice: it retains page payloads by LPA.
type dataDev struct {
	recordingDev
	pages map[int64][]byte
	size  int
}

func (d *dataDev) Submit(req blockio.Request) (sim.Micros, error) {
	if _, err := d.recordingDev.Submit(req); err != nil {
		return 0, err
	}
	if req.Op == blockio.OpWrite && req.Data != nil {
		for i := int32(0); i < req.Pages; i++ {
			d.pages[req.LPA+int64(i)] = req.PageData(int(i))
		}
	}
	return 0, nil
}

func (d *dataDev) ReadLogical(lpa int64) ([]byte, error) {
	return d.pages[lpa], nil
}

func TestAppendDataAndReadAll(t *testing.T) {
	dev := &dataDev{pages: map[int64][]byte{}}
	fs, _ := New(dev, 256, 512)
	f, _ := fs.Create("blob", 0)
	payload := make([]byte, 1300) // 2.5 pages -> 3 pages padded
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := fs.AppendData(f, payload); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 3 {
		t.Fatalf("file has %d pages, want 3", f.Pages())
	}
	got, err := fs.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*512 {
		t.Fatalf("ReadAll returned %d bytes, want %d", len(got), 3*512)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	// Padding must be zero.
	for i := len(payload); i < len(got); i++ {
		if got[i] != 0 {
			t.Fatal("padding not zeroed")
		}
	}
	if err := fs.AppendData(f, nil); err != nil {
		t.Fatal("empty append should be a no-op")
	}
	t.Run("fragmented", testAppendDataFragmented)
}

// A fragmented append splits the payload over many extents; each must
// carry its own slice of the data, and only the last is padded.
func testAppendDataFragmented(t *testing.T) {
	dev := &dataDev{pages: map[int64][]byte{}}
	fs, _ := New(dev, 64, 512)
	// Free runs of 1, 2, 3, 1, 2, 3, ... pages between kept pages.
	var holes []*File
	for i := 0; i < 8; i++ {
		keep, _ := fs.Create(name(i)+".keep", 0)
		fs.Append(keep, 1)
		hole, _ := fs.Create(name(i)+".hole", 0)
		fs.Append(hole, 1+i%3)
		holes = append(holes, hole)
	}
	for _, hole := range holes {
		fs.Delete(hole)
	}
	fs.scan = 0
	dev.reqs = nil
	f, _ := fs.Create("blob", 0)
	payload := make([]byte, 9*512+100) // 10 pages, the last one short
	rand.New(rand.NewSource(1)).Read(payload)
	if err := fs.AppendData(f, payload); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 10 {
		t.Fatalf("file has %d pages, want 10", f.Pages())
	}
	if len(dev.reqs) < 5 {
		t.Fatalf("append went out as %d requests; the free space was meant to be fragmented", len(dev.reqs))
	}
	var sent int
	for _, r := range dev.reqs {
		if len(r.Data) != int(r.Pages)*512 {
			t.Fatalf("request of %d pages carries %d bytes", r.Pages, len(r.Data))
		}
		sent += len(r.Data)
	}
	if sent != 10*512 {
		t.Fatalf("requests carry %d bytes, want %d", sent, 10*512)
	}
	got, err := fs.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Fatal("fragmented append did not read back")
	}
	if !bytes.Equal(got[len(payload):], make([]byte, 10*512-len(payload))) {
		t.Fatal("padding not zeroed")
	}
}

func TestReadAllRequiresDataDevice(t *testing.T) {
	fs, _ := newFS(t) // recordingDev lacks ReadLogical
	f, _ := fs.Create("x", 0)
	fs.Append(f, 1)
	if _, err := fs.ReadAll(f); err == nil {
		t.Fatal("ReadAll over a non-DataDevice should fail")
	}
}

func TestAppendDataOnDeletedFile(t *testing.T) {
	dev := &dataDev{pages: map[int64][]byte{}}
	fs, _ := New(dev, 64, 512)
	f, _ := fs.Create("gone", 0)
	fs.Delete(f)
	if err := fs.AppendData(f, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := fs.ReadAll(f); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestExtentsReturnsCopy(t *testing.T) {
	fs, _ := newFS(t)
	f, _ := fs.Create("e", 0)
	fs.Append(f, 3)
	ext := f.Extents()
	if len(ext) != 3 {
		t.Fatalf("extents %v", ext)
	}
	ext[0] = 999999
	if f.Extents()[0] == 999999 {
		t.Fatal("Extents exposed internal slice")
	}
}

func TestLookupGetFiles(t *testing.T) {
	fs, _ := newFS(t)
	f, _ := fs.Create("named", 0)
	if got, ok := fs.Lookup("named"); !ok || got.ID != f.ID {
		t.Fatal("Lookup failed")
	}
	if _, ok := fs.Lookup("missing"); ok {
		t.Fatal("Lookup found a ghost")
	}
	if fs.Files() != 1 {
		t.Fatalf("Files() = %d", fs.Files())
	}
}

// Anonymous files have an ID and no directory entry.
func TestCreateAnon(t *testing.T) {
	fs, _ := newFS(t)
	empty, err := fs.Create("", 0) // a file whose name is the empty string
	if err != nil {
		t.Fatal(err)
	}
	a, b := fs.CreateAnon(0), fs.CreateAnon(OInsec)
	if a.ID == b.ID || a.ID == empty.ID || !b.Insecure || a.Insecure {
		t.Fatalf("anonymous files %+v %+v", a, b)
	}
	if got, ok := fs.Lookup(""); !ok || got != empty {
		t.Fatal("an anonymous file shadowed the file named \"\"")
	}
	if fs.Files() != 3 {
		t.Fatalf("Files() = %d, want 3", fs.Files())
	}
	if err := fs.Append(a, 2); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(a); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(a, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to a deleted anonymous file: %v", err)
	}
	if _, ok := fs.Lookup(""); !ok {
		t.Fatal("deleting an anonymous file unlinked the file named \"\"")
	}
	if err := fs.Read(a, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of a deleted file: %v", err)
	}
	if fs.Files() != 2 {
		t.Fatalf("Files() = %d, want 2", fs.Files())
	}
}

// A handle stays its file's on both sides of an ID-table page boundary,
// however many pages are added after it, and a file of another file
// system is not this one's.
func TestGetAcrossIDPages(t *testing.T) {
	fs, _ := newFS(t)
	var files []*File
	for i := 0; i < 2*idPage+3; i++ {
		files = append(files, fs.CreateAnon(0))
	}
	for _, i := range []int{0, idPage - 1, idPage, 2*idPage + 2} {
		if files[i].ID != uint64(i)+1 || fs.Append(files[i], 1) != nil {
			t.Fatalf("file %d: ID %d, or its handle no longer appends", i, files[i].ID)
		}
	}
	fs.Delete(files[idPage])
	if err := fs.Append(files[idPage], 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to a deleted file: %v", err)
	}
	if fs.Files() != len(files)-1 {
		t.Fatalf("Files() = %d", fs.Files())
	}
	other, _ := newFS(t)
	if err := other.Append(files[0], 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to another file system's file: %v", err)
	}
}

// observer hook coverage: create/overwrite/delete notify.
type obsRecorder struct {
	created, overwritten, deleted []uint64
}

func (o *obsRecorder) FileCreated(id uint64, insecure bool) { o.created = append(o.created, id) }
func (o *obsRecorder) FileOverwritten(id uint64)            { o.overwritten = append(o.overwritten, id) }
func (o *obsRecorder) FileDeleted(id uint64)                { o.deleted = append(o.deleted, id) }

func TestObserverNotifications(t *testing.T) {
	fs, _ := newFS(t)
	obs := &obsRecorder{}
	fs.SetObserver(obs)
	f, _ := fs.Create("watched", 0)
	fs.Append(f, 4)
	fs.Overwrite(f, 0, 2)
	fs.Delete(f)
	if len(obs.created) != 1 || len(obs.deleted) != 1 {
		t.Fatalf("observer counts %+v", obs)
	}
	if len(obs.overwritten) != 1 {
		t.Fatalf("overwrite notifications %d, want 1", len(obs.overwritten))
	}
	// Zero-length overwrite must not notify.
	g, _ := fs.Create("quiet", 0)
	fs.Append(g, 1)
	before := len(obs.overwritten)
	fs.Overwrite(g, 0, 0)
	if len(obs.overwritten) != before {
		t.Fatal("zero-length overwrite notified")
	}
}
