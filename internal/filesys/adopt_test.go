package filesys

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adopt/adopttest"
)

// usedFS returns a file system of total pages that has been through
// creates across several file-table pages, named and anonymous files,
// appends, overwrites and deletes, and is left partly full.
func usedFS(t *testing.T, total int64) *FS {
	t.Helper()
	fs, err := New(&recordingDev{}, total, 4096)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetObserver(&obsRecorder{})
	rng := rand.New(rand.NewSource(5))
	var files []*File
	for i := 0; i < 3*idPage; i++ {
		f := fs.CreateAnon(OpenFlag(i % 2))
		if i%100 == 0 {
			f, _ = fs.Create(randName(rng), 0)
		}
		if err := fs.Append(f, 1+rng.Intn(3)); err != nil {
			fs.Delete(f)
			continue
		}
		files = append(files, f)
		if rng.Intn(3) == 0 {
			victim := rng.Intn(len(files))
			fs.Delete(files[victim])
			files = append(files[:victim], files[victim+1:]...)
		}
	}
	return fs
}

// script drives the same operations into fs and returns the requests it
// emitted and every live file's pages.
func script(t *testing.T, fs *FS) ([]int64, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	var files []*File
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(5); {
		case op == 0 || len(files) == 0:
			files = append(files, fs.CreateAnon(OpenFlag(rng.Intn(2))))
		case op == 1:
			if f := files[rng.Intn(len(files))]; fs.Append(f, 1+rng.Intn(9)) != nil {
				continue
			}
		case op == 2:
			if f := files[rng.Intn(len(files))]; f.Pages() > 0 {
				off := rng.Intn(f.Pages())
				if err := fs.Overwrite(f, off, rng.Intn(f.Pages()-off+1)); err != nil {
					t.Fatal(err)
				}
			}
		case op == 3:
			if f := files[rng.Intn(len(files))]; f.Pages() > 0 {
				if err := fs.Read(f, 0, f.Pages()); err != nil {
					t.Fatal(err)
				}
			}
		default:
			i := rng.Intn(len(files))
			if err := fs.Delete(files[i]); err != nil {
				t.Fatal(err)
			}
			files = append(files[:i], files[i+1:]...)
		}
	}
	var reqs []int64
	for _, r := range fs.dev.(*recordingDev).reqs {
		reqs = append(reqs, int64(r.Op), r.LPA, int64(r.Pages), int64(r.FileID))
	}
	var pages [][]int64
	for _, f := range files {
		pages = append(pages, f.Extents())
	}
	return reqs, pages
}

// TestNewFromEqualsNew: a file system built from a used one is, right
// after construction, the one New builds — bitmap, page chain, file
// table, counters, compared field by field — and answers the same
// operations with the same requests. The donors are smaller than, as
// large as, and larger than the new file system, whose capacity does not
// fill its last bitmap word.
func TestNewFromEqualsNew(t *testing.T) {
	const total = 4000
	for _, donorPages := range []int64{1000, total, 9000} {
		fresh, err := New(&recordingDev{}, total, 4096)
		if err != nil {
			t.Fatal(err)
		}
		adopted, err := NewFrom(usedFS(t, donorPages), &recordingDev{}, total, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if d := adopttest.Diff(fresh, adopted); d != "" {
			t.Fatalf("donor of %d pages: file system built from a used one differs from a new one at %s", donorPages, d)
		}
		wantReqs, wantPages := script(t, fresh)
		gotReqs, gotPages := script(t, adopted)
		if !reflect.DeepEqual(gotReqs, wantReqs) || !reflect.DeepEqual(gotPages, wantPages) {
			t.Errorf("donor of %d pages: the adopted file system answers the script differently", donorPages)
		}
		if fresh.FreePages() != adopted.FreePages() || fresh.Files() != adopted.Files() {
			t.Errorf("donor of %d pages: %d free pages and %d files, a new one %d and %d",
				donorPages, adopted.FreePages(), adopted.Files(), fresh.FreePages(), fresh.Files())
		}
	}
}
