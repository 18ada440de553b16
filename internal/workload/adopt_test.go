package workload

import (
	"testing"

	"repro/internal/adopt/adopttest"
	"repro/internal/filesys"
)

// TestNewFromEqualsNew: a generator built from a used one is, right after
// construction, the generator NewGenerator builds — file set, random
// source and counters, compared field by field — and drives the same
// request stream. The donors ran another profile on another seed, with a
// file set smaller and larger than the new one needs.
func TestNewFromEqualsNew(t *testing.T) {
	const (
		logicalPages = 20_000
		seed         = 3
	)
	build := func(old *Generator) (*Generator, *streamHasher) {
		s := newStreamHasher()
		fs, err := filesys.New(s, logicalPages, pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		return NewGeneratorFrom(old, FileServer(), fs, pageBytes, seed), s
	}
	for _, donor := range []struct {
		prof  Profile
		pages int64
	}{
		{Mobile(), logicalPages},         // fewer, larger files: a smaller file set
		{MailServer(), 2 * logicalPages}, // more, smaller files: a larger one
	} {
		t.Run(donor.prof.Name, func(t *testing.T) {
			fs, err := filesys.New(newStreamHasher(), donor.pages, pageBytes)
			if err != nil {
				t.Fatal(err)
			}
			used := NewGenerator(donor.prof, fs, pageBytes, seed+4)
			if err := used.Fill(0.75); err != nil {
				t.Fatal(err)
			}
			if err := used.RunPages(logicalPages); err != nil {
				t.Fatal(err)
			}
			fresh, want := build(nil)
			adopted, got := build(used)
			if d := adopttest.Diff(fresh, adopted); d != "" {
				t.Fatalf("generator built from a used one differs from a new one at %s", d)
			}
			for _, g := range []*Generator{fresh, adopted} {
				if err := g.Fill(0.75); err != nil {
					t.Fatal(err)
				}
				if err := g.RunPages(2 * logicalPages); err != nil {
					t.Fatal(err)
				}
			}
			if got.n != want.n || got.sum() != want.sum() {
				t.Errorf("adopted generator: %d requests sha %s, a new one %d %s", got.n, got.sum(), want.n, want.sum())
			}
		})
	}
}
