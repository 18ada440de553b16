package ftltest_test

import (
	"slices"
	"testing"

	"repro/internal/blockio"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/nand"
	"repro/internal/sanitize"
)

// The oracle reports a stale copy the baseline leaves, never a live
// page, and a page the FTL counts as free that still holds data.
func TestReadableStale(t *testing.T) {
	geo := ftltest.SmallGeometry()
	chips := ftltest.BuildChips(t, geo)
	f, err := ftl.New(ftltest.SmallConfig(), ftltest.New(geo).WithChips(chips), sanitize.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		if _, err := f.Submit(blockio.Request{Op: blockio.OpWrite, LPA: 0, Pages: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if got := ftltest.ReadableStale(f, chips, 0); len(got) != 0 {
		t.Fatalf("one live page: ReadableStale = %v, want none", got)
	}
	old := f.Lookup(0)
	write()
	if got := ftltest.ReadableStale(f, chips, 0); !slices.Equal(got, []ftl.PPA{old}) {
		t.Fatalf("after an overwrite: ReadableStale = %v, want [%d]", got, old)
	}

	free := ftl.PPA((geo.TotalBlocks() - 1) * geo.PagesPerBlock)
	if f.Status(free) != ftl.PageFree {
		t.Fatalf("page %d is %v, want free", free, f.Status(free))
	}
	chip, block, page := geo.Locate(free)
	if _, err := chips[chip].Program(nand.PageAddr{Block: block, Page: page}, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if got := ftltest.ReadableStale(f, chips, 0); !slices.Equal(got, []ftl.PPA{old, free}) {
		t.Fatalf("after a program behind the FTL: ReadableStale = %v, want [%d %d]", got, old, free)
	}
}
