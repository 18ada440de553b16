// Package filesys emulates the host file layer of the paper's system
// stack: files map to logical-page extents, deletion unlinks and trims,
// and the O_INSEC open flag (§6) propagates to the block layer as
// REQ_OP_INSEC_WRITE so SecureSSD can sanitize selectively.
//
// The allocator is ext4-like in spirit: it prefers contiguous extents
// via a next-fit scan over a free bitmap. The package is deliberately
// simple — it exists to generate realistic LPA patterns (creates,
// appends, in-place overwrites, deletes) for the workload generators and
// the VerTrace study, not to be a POSIX file system.
//
// The request path allocates nothing per request: the allocator appends
// straight into the file's extent list (amortised growth only), requests
// are emitted by walking that list run by run, and a file's liveness is a
// field on the File rather than a table probe.
package filesys

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

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
// multi-version (overwritten, truncated, or deleted), per §3.
type Observer interface {
	FileCreated(id uint64, insecure bool)
	FileOverwritten(id uint64)
	FileDeleted(id uint64)
}

// File is an open file's metadata.
type File struct {
	ID       uint64
	Name     string // "" for a file made by CreateAnon
	Insecure bool
	// fs is the file system the file lives in; nil once deleted.
	fs *FS
	// extents holds the logical pages backing the file, in file order.
	extents []int64
}

// Pages returns the file size in logical pages.
func (f *File) Pages() int { return len(f.extents) }

// FS is the emulated file system.
type FS struct {
	dev       Device
	pageBytes int
	total     int64
	freePages int64
	bitmap    []uint64 // 1 = used; bits at and beyond total stay set
	scan      int64    // next-fit cursor
	// byID is the ID table. IDs are issued densely from 1, so it is an
	// array in idPage-sized pieces rather than a hash map: entry (id-1)
	// holds the file, nil once deleted.
	byID     [][]*File
	live     int
	byName   map[string]*File
	nextID   uint64
	observer Observer
}

const idPage = 1024

// slot returns the ID table entry of an ID that has been issued.
func (fs *FS) slot(id uint64) **File {
	return &fs.byID[(id-1)/idPage][(id-1)%idPage]
}

// SetObserver installs a lifecycle observer (nil to remove).
func (fs *FS) SetObserver(o Observer) { fs.observer = o }

// New creates a file system over dev exporting totalPages logical pages.
func New(dev Device, totalPages int64, pageBytes int) (*FS, error) {
	if dev == nil || totalPages <= 0 || pageBytes <= 0 {
		return nil, fmt.Errorf("filesys: bad parameters dev=%v pages=%d size=%d", dev, totalPages, pageBytes)
	}
	fs := &FS{
		dev:       dev,
		pageBytes: pageBytes,
		total:     totalPages,
		freePages: totalPages,
		bitmap:    make([]uint64, (totalPages+63)/64),
		byName:    map[string]*File{},
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

// Get returns a file by ID.
func (fs *FS) Get(id uint64) (*File, bool) {
	if id == 0 || id >= fs.nextID {
		return nil, false
	}
	f := *fs.slot(id)
	return f, f != nil
}

// Create makes an empty file. Flags control its security requirement.
func (fs *FS) Create(name string, flags OpenFlag) (*File, error) {
	if _, exists := fs.byName[name]; exists {
		return nil, fmt.Errorf("filesys: %q already exists", name)
	}
	f := fs.newFile(name, flags)
	fs.byName[name] = f
	return f, nil
}

// CreateAnon makes an empty file with no name, the way O_TMPFILE does:
// it takes the next ID, is found by Get and counted by Files, but has no
// directory entry, so Lookup never returns it and it cannot collide. The
// workload generators, which only ever use the handle, create their
// population this way.
func (fs *FS) CreateAnon(flags OpenFlag) *File {
	return fs.newFile("", flags)
}

func (fs *FS) newFile(name string, flags OpenFlag) *File {
	f := &File{
		ID:       fs.nextID,
		Name:     name,
		Insecure: flags&OInsec != 0,
		fs:       fs,
	}
	fs.nextID++
	if (f.ID-1)%idPage == 0 {
		fs.byID = append(fs.byID, make([]*File, idPage))
	}
	*fs.slot(f.ID) = f
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
	before := len(f.extents)
	var err error
	if f.extents, err = fs.alloc(f.extents, n); err != nil {
		return err
	}
	return fs.submitRuns(f.writeRequest(), f.extents[before:])
}

// Overwrite rewrites n pages of the file starting at page offset off
// (in-place at the file-system level; the FTL makes it out-of-place).
func (fs *FS) Overwrite(f *File, off, n int) error {
	if f.fs != fs {
		return ErrNotFound
	}
	if off < 0 || n < 0 || off+n > len(f.extents) {
		return fmt.Errorf("filesys: overwrite [%d,%d) outside %q (%d pages)", off, off+n, f.Name, len(f.extents))
	}
	if fs.observer != nil && n > 0 {
		fs.observer.FileOverwritten(f.ID)
	}
	return fs.submitRuns(f.writeRequest(), f.extents[off:off+n])
}

// Read reads n pages of the file starting at page offset off.
func (fs *FS) Read(f *File, off, n int) error {
	if f.fs != fs {
		return ErrNotFound
	}
	if off < 0 || n < 0 || off+n > len(f.extents) {
		return fmt.Errorf("filesys: read [%d,%d) outside %q (%d pages)", off, off+n, f.Name, len(f.extents))
	}
	return fs.submitRuns(blockio.Request{Op: blockio.OpRead, FileID: f.ID}, f.extents[off:off+n])
}

// Delete unlinks the file and trims its pages — the paper's deletion
// flow: the trim tells the device which LPAs hold stale data.
func (fs *FS) Delete(f *File) error {
	if f.fs != fs {
		return ErrNotFound
	}
	f.fs = nil
	*fs.slot(f.ID) = nil
	fs.live--
	// Only the directory entry that points at f: an anonymous file must
	// not unlink a file that was Created as "".
	if fs.byName[f.Name] == f {
		delete(fs.byName, f.Name)
	}
	if fs.observer != nil {
		fs.observer.FileDeleted(f.ID)
	}
	if err := fs.submitRuns(f.trimRequest(), f.extents); err != nil {
		return err
	}
	fs.free(f.extents)
	f.extents = nil
	return nil
}

// Truncate cuts the file to n pages, trimming the removed tail.
func (fs *FS) Truncate(f *File, n int) error {
	if f.fs != fs {
		return ErrNotFound
	}
	if n < 0 || n > len(f.extents) {
		return fmt.Errorf("filesys: truncate %q to %d pages (has %d)", f.Name, n, len(f.extents))
	}
	if fs.observer != nil && n < len(f.extents) {
		// A shrinking truncate discards content: the file is multi-version.
		fs.observer.FileOverwritten(f.ID)
	}
	tail := f.extents[n:]
	if err := fs.submitRuns(f.trimRequest(), tail); err != nil {
		return err
	}
	fs.free(tail)
	f.extents = f.extents[:n]
	return nil
}

// writeRequest and trimRequest are the per-file request templates
// submitRuns stamps an extent onto.
func (f *File) writeRequest() blockio.Request {
	return blockio.Request{Op: blockio.OpWrite, Insecure: f.Insecure, FileID: f.ID}
}

func (f *File) trimRequest() blockio.Request {
	return blockio.Request{Op: blockio.OpTrim, Insecure: f.Insecure, FileID: f.ID}
}

// submitRuns coalesces pages into maximal contiguous extents, the way a
// block layer merges bios, and submits req once per extent.
func (fs *FS) submitRuns(req blockio.Request, pages []int64) error {
	for len(pages) > 0 {
		n := runLen(pages)
		req.LPA, req.Pages = pages[0], int32(n)
		if _, err := fs.dev.Submit(req); err != nil {
			return err
		}
		pages = pages[n:]
	}
	return nil
}

// runLen returns the length of the contiguous run that starts pages,
// which must not be empty.
func runLen(pages []int64) int {
	n := 1
	for n < len(pages) && pages[n] == pages[n-1]+1 {
		n++
	}
	return n
}

// alloc reserves n logical pages, preferring contiguity via next-fit, and
// appends them to dst in allocation order. It takes every free page from
// the cursor on, wrapping at the end of the device, and skips used pages a
// bitmap word at a time.
func (fs *FS) alloc(dst []int64, n int) ([]int64, error) {
	if int64(n) > fs.freePages {
		return dst, ErrNoSpace
	}
	dst = slices.Grow(dst, n)
	cursor := fs.scan
	for need := n; need > 0; {
		w := cursor / 64
		free := ^fs.bitmap[w] &^ (1<<uint(cursor%64) - 1)
		for ; free != 0 && need > 0; need-- {
			b := bits.TrailingZeros64(free)
			free &^= 1 << uint(b)
			fs.bitmap[w] |= 1 << uint(b)
			cursor = w*64 + int64(b)
			dst = append(dst, cursor)
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
	return dst, nil
}

func (fs *FS) free(pages []int64) {
	for _, p := range pages {
		if bit := uint64(1) << uint(p%64); fs.bitmap[p/64]&bit != 0 {
			fs.bitmap[p/64] &^= bit
			fs.freePages++
		}
	}
}

// DataDevice is an optional Device extension for reading stored content
// back (the ssd package implements it).
type DataDevice interface {
	Device
	ReadLogical(lpa int64) ([]byte, error)
}

// Extents returns a copy of the file's logical pages in file order.
func (f *File) Extents() []int64 {
	out := make([]int64, len(f.extents))
	copy(out, f.extents)
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
	before := len(f.extents)
	var err error
	if f.extents, err = fs.alloc(f.extents, (len(data)+fs.pageBytes-1)/fs.pageBytes); err != nil {
		return err
	}
	req := f.writeRequest()
	for pages := f.extents[before:]; len(pages) > 0; {
		n := runLen(pages)
		size := n * fs.pageBytes
		if size <= len(data) {
			req.Data, data = data[:size], data[size:]
		} else {
			req.Data = make([]byte, size)
			copy(req.Data, data)
		}
		req.LPA, req.Pages = pages[0], int32(n)
		if _, err := fs.dev.Submit(req); err != nil {
			return err
		}
		pages = pages[n:]
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
	out := make([]byte, 0, len(f.extents)*fs.pageBytes)
	for _, lpa := range f.extents {
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
