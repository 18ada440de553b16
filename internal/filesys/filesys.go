// Package filesys emulates the host file layer of the paper's system
// stack: files map to logical pages, deletion unlinks and trims, and the
// O_INSEC open flag (§6) propagates to the block layer as
// REQ_OP_INSEC_WRITE so SecureSSD can sanitize selectively.
//
// The allocator is ext4-like in spirit: it prefers contiguous extents
// via a next-fit scan over a free bitmap. The package is deliberately
// simple — it exists to generate realistic LPA patterns (creates,
// appends, in-place overwrites, deletes) for the workload generators and
// the VerTrace study, not to be a POSIX file system.
//
// The request path allocates nothing. A file's pages are a chain through
// one array indexed by logical page, as in a FAT: the file holds its
// first and last page, the allocator links new pages onto the tail,
// requests are emitted by walking the chain and merging consecutive
// pages, and a delete frees the chain as it walks it. Files are values in
// ID-ordered pages of idPage, so a create allocates once per idPage IDs,
// and NewFrom builds a file system on a retired one's storage.
package filesys

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/adopt"
	"repro/internal/blockio"
	"repro/internal/sim"
)

// Device is the block device under the file system.
type Device interface {
	Submit(req blockio.Request) (sim.Micros, error)
}

// OpenFlag mirrors the paper's extended open(2) flags.
type OpenFlag uint32

const (
	// OInsec marks a file's data as security-insensitive: its writes are
	// flagged REQ_OP_INSEC_WRITE and its deletion carries no sanitization
	// guarantee.
	OInsec OpenFlag = 1 << iota
)

// ErrNoSpace is returned when the logical space is exhausted.
var ErrNoSpace = errors.New("filesys: no space left on device")

// ErrNotFound is returned for operations on unknown files.
var ErrNotFound = errors.New("filesys: file not found")

// Observer receives file-lifecycle notifications. The VerTrace study uses
// them to classify files as uni-version (append-only / write-once) or
// multi-version (overwritten or deleted), per §3.
type Observer interface {
	FileCreated(id uint64, insecure bool)
	FileOverwritten(id uint64)
	FileDeleted(id uint64)
}

// File is an open file's metadata. Every ID issued keeps its File for the
// life of the file system, so it holds no name: a Created file's name
// lives in the directory alone.
type File struct {
	ID       uint64
	Insecure bool
	// The file's logical pages are the chain from head to tail through
	// fs.next, pages long; head and tail mean nothing while pages is 0.
	head, tail int32
	pages      int32
	// fs is the file system the file lives in; nil once deleted.
	fs *FS
}

// Pages returns the file size in logical pages.
func (f *File) Pages() int { return int(f.pages) }

// FS is the emulated file system.
type FS struct {
	dev       Device
	pageBytes int
	total     int64
	freePages int64
	bitmap    []uint64 // 1 = used; bits at and beyond total stay set
	scan      int64    // next-fit cursor
	// next[p] is the page after p in p's file; only links inside a
	// file's chain are meaningful.
	next []int32
	// byID is the file table. IDs are issued densely from 1 and never
	// reused, so it is an array in idPage-sized pages of File values:
	// entry (id-1) holds the file, with fs == nil once deleted.
	byID     [][]File
	live     int
	byName   map[string]*File
	nameOf   map[*File]string // byName inverted
	nextID   uint64
	observer Observer
}

const idPage = 1024

// slot returns the file table entry of an ID that has been issued.
func (fs *FS) slot(id uint64) *File {
	return &fs.byID[(id-1)/idPage][(id-1)%idPage]
}

// SetObserver installs a lifecycle observer (nil to remove).
func (fs *FS) SetObserver(o Observer) { fs.observer = o }

// New creates a file system over dev exporting totalPages logical pages.
func New(dev Device, totalPages int64, pageBytes int) (*FS, error) {
	return NewFrom(nil, dev, totalPages, pageBytes)
}

// NewFrom is New building on a retired file system's storage: the free
// bitmap, the page chain and the file table's pages come from old through
// adopt where they are large enough, and everything else about the result
// is what New sets — New is this body with no donor. old, and every File
// it handed out, must not be used afterwards; nil is allowed.
func NewFrom(old *FS, dev Device, totalPages int64, pageBytes int) (*FS, error) {
	if dev == nil || totalPages <= 0 || totalPages > math.MaxInt32 || pageBytes <= 0 {
		return nil, fmt.Errorf("filesys: bad parameters dev=%v pages=%d size=%d", dev, totalPages, pageBytes)
	}
	if old == nil {
		old = &FS{}
	}
	fs := &FS{
		dev:       dev,
		pageBytes: pageBytes,
		total:     totalPages,
		freePages: totalPages,
		bitmap:    adopt.Zeroed(old.bitmap, int((totalPages+63)/64)),
		next:      adopt.Zeroed(old.next, int(totalPages)),
		byID:      adopt.ZeroedEach(old.byID, idPage),
		byName:    map[string]*File{},
		nameOf:    map[*File]string{},
		nextID:    1,
	}
	if tail := uint(totalPages % 64); tail != 0 {
		// Pages past the capacity in the last word are never free, so the
		// allocator's word scan needs no end-of-device mask.
		fs.bitmap[len(fs.bitmap)-1] = ^uint64(0) << tail
	}
	return fs, nil
}

// FreePages returns the unallocated logical pages.
func (fs *FS) FreePages() int64 { return fs.freePages }

// TotalPages returns the exported capacity.
func (fs *FS) TotalPages() int64 { return fs.total }

// Files returns the number of live files.
func (fs *FS) Files() int { return fs.live }

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*File, bool) {
	f, ok := fs.byName[name]
	return f, ok
}

// Create makes an empty file. Flags control its security requirement.
func (fs *FS) Create(name string, flags OpenFlag) (*File, error) {
	if _, exists := fs.byName[name]; exists {
		return nil, fmt.Errorf("filesys: %q already exists", name)
	}
	f := fs.newFile(flags)
	fs.byName[name], fs.nameOf[f] = f, name
	return f, nil
}

// CreateAnon makes an empty file with no name, the way O_TMPFILE does:
// it takes the next ID and is counted by Files, but has no
// directory entry, so Lookup never returns it and it cannot collide. The
// workload generators, which only ever use the handle, create their
// population this way.
func (fs *FS) CreateAnon(flags OpenFlag) *File {
	return fs.newFile(flags)
}

func (fs *FS) newFile(flags OpenFlag) *File {
	id := fs.nextID
	fs.nextID++
	if page := int((id - 1) / idPage); page == len(fs.byID) {
		fs.byID = append(fs.byID, make([]File, idPage))
	}
	f := fs.slot(id)
	*f = File{ID: id, Insecure: flags&OInsec != 0, fs: fs}
	fs.live++
	if fs.observer != nil {
		fs.observer.FileCreated(f.ID, f.Insecure)
	}
	return f
}

// Append extends the file by n pages and writes them.
func (fs *FS) Append(f *File, n int) error {
	if f.fs != fs {
		return ErrNotFound
	}
	if n <= 0 {
		return nil
	}
	first, err := fs.alloc(f, n)
	if err != nil {
		return err
	}
	return fs.submitRuns(f.writeRequest(), first, n)
}

// Overwrite rewrites n pages of the file starting at page offset off
// (in-place at the file-system level; the FTL makes it out-of-place).
func (fs *FS) Overwrite(f *File, off, n int) error {
	if f.fs != fs {
		return ErrNotFound
	}
	if off < 0 || n < 0 || off+n > f.Pages() {
		return fmt.Errorf("filesys: overwrite [%d,%d) outside file %d (%d pages)", off, off+n, f.ID, f.pages)
	}
	if fs.observer != nil && n > 0 {
		fs.observer.FileOverwritten(f.ID)
	}
	return fs.submitRuns(f.writeRequest(), fs.seek(f, off), n)
}

// Read reads n pages of the file starting at page offset off.
func (fs *FS) Read(f *File, off, n int) error {
	if f.fs != fs {
		return ErrNotFound
	}
	if off < 0 || n < 0 || off+n > f.Pages() {
		return fmt.Errorf("filesys: read [%d,%d) outside file %d (%d pages)", off, off+n, f.ID, f.pages)
	}
	return fs.submitRuns(blockio.Request{Op: blockio.OpRead, FileID: f.ID}, fs.seek(f, off), n)
}

// Delete unlinks the file and trims its pages — the paper's deletion
// flow: the trim tells the device which LPAs hold stale data. The pages
// are freed whatever the device answers, since a discard is advisory; the
// first error is returned and no further trim is sent after it.
func (fs *FS) Delete(f *File) error {
	if f.fs != fs {
		return ErrNotFound
	}
	f.fs = nil
	fs.live--
	if name, ok := fs.nameOf[f]; ok {
		delete(fs.byName, name)
		delete(fs.nameOf, f)
	}
	if fs.observer != nil {
		fs.observer.FileDeleted(f.ID)
	}
	var err error
	req := f.trimRequest()
	for lpa, n := f.head, int(f.pages); n > 0; {
		run, after := fs.run(lpa, n)
		if err == nil {
			req.LPA, req.Pages = int64(lpa), int32(run)
			_, err = fs.dev.Submit(req)
		}
		for p := lpa; p < lpa+int32(run); p++ {
			fs.bitmap[p/64] &^= 1 << uint(p%64)
		}
		lpa, n = after, n-run
	}
	fs.freePages += int64(f.pages)
	f.pages = 0
	return err
}

// writeRequest and trimRequest are the per-file request templates
// submitRuns stamps an extent onto.
func (f *File) writeRequest() blockio.Request {
	return blockio.Request{Op: blockio.OpWrite, Insecure: f.Insecure, FileID: f.ID}
}

func (f *File) trimRequest() blockio.Request {
	return blockio.Request{Op: blockio.OpTrim, Insecure: f.Insecure, FileID: f.ID}
}

// seek returns the page at offset off of the file, off < f.pages.
func (fs *FS) seek(f *File, off int) int32 {
	lpa := f.head
	for ; off > 0; off-- {
		lpa = fs.next[lpa]
	}
	return lpa
}

// run returns the length of the run of consecutive logical pages the
// chain holds from lpa on, at most n (n > 0), and the chain's page after
// the run.
func (fs *FS) run(lpa int32, n int) (run int, after int32) {
	run = 1
	for ; run < n && fs.next[lpa] == lpa+1; run++ {
		lpa++
	}
	return run, fs.next[lpa]
}

// submitRuns coalesces the n chained pages from lpa on into maximal
// contiguous extents, the way a block layer merges bios, and submits req
// once per extent.
func (fs *FS) submitRuns(req blockio.Request, lpa int32, n int) error {
	for n > 0 {
		run, after := fs.run(lpa, n)
		req.LPA, req.Pages = int64(lpa), int32(run)
		if _, err := fs.dev.Submit(req); err != nil {
			return err
		}
		lpa, n = after, n-run
	}
	return nil
}

// alloc reserves n logical pages, preferring contiguity via next-fit,
// links them onto the tail of f's chain in allocation order and returns
// the first of them. It takes every free page from the cursor on,
// wrapping at the end of the device, and skips used pages a bitmap word
// at a time.
func (fs *FS) alloc(f *File, n int) (int32, error) {
	if int64(n) > fs.freePages {
		return 0, ErrNoSpace
	}
	var first int32
	cursor := fs.scan
	for need := n; need > 0; {
		w := cursor / 64
		free := ^fs.bitmap[w] &^ (1<<uint(cursor%64) - 1)
		for ; free != 0 && need > 0; need-- {
			b := bits.TrailingZeros64(free)
			free &^= 1 << uint(b)
			fs.bitmap[w] |= 1 << uint(b)
			cursor = w*64 + int64(b)
			lpa := int32(cursor)
			if need == n {
				first = lpa
			}
			if f.pages == 0 {
				f.head = lpa
			} else {
				fs.next[f.tail] = lpa
			}
			f.tail = lpa
			f.pages++
			cursor++
		}
		if need > 0 {
			cursor = (w + 1) * 64
		}
		if cursor >= fs.total {
			cursor = 0
		}
	}
	fs.scan = cursor
	fs.freePages -= int64(n)
	return first, nil
}

// DataDevice is an optional Device extension for reading stored content
// back (the ssd package implements it).
type DataDevice interface {
	Device
	ReadLogical(lpa int64) ([]byte, error)
}

// Extents returns the file's logical pages in file order.
func (f *File) Extents() []int64 {
	out := make([]int64, 0, f.pages)
	for lpa, n := f.head, f.pages; n > 0; lpa, n = f.fs.next[lpa], n-1 {
		out = append(out, int64(lpa))
	}
	return out
}

// AppendData extends the file with real content, page by page. The data
// is padded to whole pages.
func (fs *FS) AppendData(f *File, data []byte) error {
	if f.fs != fs {
		return ErrNotFound
	}
	if len(data) == 0 {
		return nil
	}
	n := (len(data) + fs.pageBytes - 1) / fs.pageBytes
	lpa, err := fs.alloc(f, n)
	if err != nil {
		return err
	}
	req := f.writeRequest()
	for n > 0 {
		run, after := fs.run(lpa, n)
		size := run * fs.pageBytes
		if size <= len(data) {
			req.Data, data = data[:size], data[size:]
		} else {
			req.Data = make([]byte, size)
			copy(req.Data, data)
		}
		req.LPA, req.Pages = int64(lpa), int32(run)
		if _, err := fs.dev.Submit(req); err != nil {
			return err
		}
		lpa, n = after, n-run
	}
	return nil
}

// ReadAll returns the file's full content. The device must implement
// DataDevice.
func (fs *FS) ReadAll(f *File) ([]byte, error) {
	if f.fs != fs {
		return nil, ErrNotFound
	}
	dd, ok := fs.dev.(DataDevice)
	if !ok {
		return nil, fmt.Errorf("filesys: device %T cannot return data", fs.dev)
	}
	out := make([]byte, 0, f.Pages()*fs.pageBytes)
	for _, lpa := range f.Extents() {
		page, err := dd.ReadLogical(lpa)
		if err != nil {
			return nil, err
		}
		if len(page) < fs.pageBytes {
			padded := make([]byte, fs.pageBytes)
			copy(padded, page)
			page = padded
		}
		out = append(out, page...)
	}
	return out, nil
}
