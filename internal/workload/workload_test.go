package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/blockio"
	"repro/internal/filesys"
	"repro/internal/pintest"
	"repro/internal/sim"
)

// countingDev tallies request kinds.
type countingDev struct {
	reads, writes, trims    int
	readPages, writtenPages int64
	insecurePages, secPages int64
	minWrite, maxWrite      int32
}

func (d *countingDev) Submit(req blockio.Request) (sim.Micros, error) {
	switch req.Op {
	case blockio.OpRead:
		d.reads++
		d.readPages += int64(req.Pages)
	case blockio.OpWrite:
		d.writes++
		d.writtenPages += int64(req.Pages)
		if req.Insecure {
			d.insecurePages += int64(req.Pages)
		} else {
			d.secPages += int64(req.Pages)
		}
		if d.minWrite == 0 || req.Pages < d.minWrite {
			d.minWrite = req.Pages
		}
		if req.Pages > d.maxWrite {
			d.maxWrite = req.Pages
		}
	case blockio.OpTrim:
		d.trims++
	}
	return 0, nil
}

const pageBytes = 16 * KiB

func runGen(t *testing.T, prof Profile, secureFrac float64, pages uint64) (*Generator, *countingDev) {
	t.Helper()
	dev := &countingDev{}
	fs, err := filesys.New(dev, 64*1024, pageBytes) // 1 GiB logical
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(prof, fs, pageBytes, 42)
	g.SecureFraction = secureFrac
	if err := g.RunPages(pages); err != nil {
		t.Fatal(err)
	}
	return g, dev
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("%d profiles, want 4", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.MinWrite <= 0 || p.MaxWrite < p.MinWrite {
			t.Errorf("%s: bad write range", p.Name)
		}
	}
	for _, want := range []string{"MailServer", "DBServer", "FileServer", "Mobile"} {
		if !names[want] {
			t.Errorf("missing profile %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("DBServer")
	if err != nil || p.Name != "DBServer" {
		t.Fatalf("ByName: %v %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// Table 2 read:write request ratios, within tolerance.
func TestReadWriteRatios(t *testing.T) {
	cases := []struct {
		prof Profile
		want float64 // reads per write
		tol  float64
	}{
		{MailServer(), 1.0, 0.35},
		{DBServer(), 0.1, 0.07},
		{FileServer(), 0.75, 0.3},
		{Mobile(), 0.02, 0.04},
	}
	for _, c := range cases {
		g, dev := runGen(t, c.prof, 1.0, 40000)
		if dev.writes == 0 {
			t.Fatalf("%s: no writes", c.prof.Name)
		}
		ratio := float64(g.Reads) / float64(g.Writes)
		if ratio < c.want-c.tol || ratio > c.want+c.tol {
			t.Errorf("%s: r:w ratio %.3f, want %.2f±%.2f (reads=%d writes=%d)",
				c.prof.Name, ratio, c.want, c.tol, g.Reads, g.Writes)
		}
	}
}

// Table 2 write sizes: requests must fall inside the profile's range.
// Profiles with paired interleaved creates (Mobile) chunk their file
// writes into 8-page block-layer requests, so only the upper bound
// applies there.
func TestWriteSizeRanges(t *testing.T) {
	for _, prof := range Profiles() {
		_, dev := runGen(t, prof, 1.0, 20000)
		maxPages := int32((prof.MaxWrite + pageBytes - 1) / pageBytes)
		if dev.maxWrite > maxPages {
			t.Errorf("%s: max write %d pages above %d", prof.Name, dev.maxWrite, maxPages)
		}
		if prof.PairedCreates > 0 {
			continue
		}
		minPages := int32(prof.MinWrite / pageBytes)
		if minPages < 1 {
			minPages = 1
		}
		if dev.minWrite < minPages {
			t.Errorf("%s: min write %d pages below %d", prof.Name, dev.minWrite, minPages)
		}
	}
}

func TestDBServerOverwritesDominate(t *testing.T) {
	g, dev := runGen(t, DBServer(), 1.0, 30000)
	// Overwrites rewrite existing LPAs: trims stay rare because files are
	// rarely deleted.
	if dev.trims > int(g.Writes)/5 {
		t.Errorf("DBServer: %d trims for %d writes; deletes should be rare", dev.trims, g.Writes)
	}
}

func TestMobileDeletesChurn(t *testing.T) {
	g, dev := runGen(t, Mobile(), 1.0, 60000)
	if g.Deletes == 0 || dev.trims == 0 {
		t.Fatal("Mobile must delete pictures")
	}
	// Large files: the mean write must exceed 10 pages (160 KiB at 16 KiB
	// pages, given 0.5-8 MiB pictures).
	mean := float64(dev.writtenPages) / float64(dev.writes)
	if mean < 10 {
		t.Errorf("Mobile mean write %.1f pages, expected large picture writes", mean)
	}
}

func TestSecureFractionZeroAndOne(t *testing.T) {
	_, devAll := runGen(t, MailServer(), 1.0, 10000)
	if devAll.insecurePages != 0 {
		t.Fatal("SecureFraction=1.0 produced insecure writes")
	}
	_, devNone := runGen(t, MailServer(), 0.0, 10000)
	if devNone.secPages != 0 {
		t.Fatal("SecureFraction=0.0 produced secure writes")
	}
}

func TestSecureFractionMid(t *testing.T) {
	_, dev := runGen(t, MailServer(), 0.6, 30000)
	frac := float64(dev.secPages) / float64(dev.secPages+dev.insecurePages)
	if frac < 0.45 || frac > 0.75 {
		t.Errorf("secure fraction %.2f, want ≈0.6", frac)
	}
}

func TestGovernorHoldsUtilization(t *testing.T) {
	dev := &countingDev{}
	fs, _ := filesys.New(dev, 4096, pageBytes) // small: 64 MiB
	g := NewGenerator(Mobile(), fs, pageBytes, 1)
	if err := g.RunPages(40000); err != nil {
		t.Fatal(err)
	}
	util := 1 - float64(fs.FreePages())/float64(fs.TotalPages())
	if util > 0.95 {
		t.Fatalf("utilization %.2f: governor failed", util)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		dev := &countingDev{}
		fs, _ := filesys.New(dev, 64*1024, pageBytes)
		g := NewGenerator(FileServer(), fs, pageBytes, 99)
		if err := g.RunPages(20000); err != nil {
			t.Fatal(err)
		}
		return g.Reads, g.Writes, g.PagesWritten
	}
	r1, w1, p1 := run()
	r2, w2, p2 := run()
	if r1 != r2 || w1 != w2 || p1 != p2 {
		t.Fatal("generator is not deterministic under a fixed seed")
	}
}

func TestRunPagesWritesAtLeast(t *testing.T) {
	g, _ := runGen(t, MailServer(), 1.0, 5000)
	if g.PagesWritten < 5000 {
		t.Fatalf("PagesWritten = %d, want >= 5000", g.PagesWritten)
	}
}

func TestRecordProducesValidTrace(t *testing.T) {
	trace, err := Record(MailServer(), 32*1024, pageBytes, 5000, 0.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Name != "MailServer" || trace.PageBytes != pageBytes {
		t.Fatalf("trace header %q %d", trace.Name, trace.PageBytes)
	}
	var written int64
	insecure := false
	for _, r := range trace.Requests {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid recorded request: %v", err)
		}
		if r.Op == blockio.OpWrite {
			written += int64(r.Pages)
			insecure = insecure || r.Insecure
		}
	}
	if written < 5000 {
		t.Fatalf("recorded %d written pages, want >= 5000", written)
	}
	if !insecure {
		t.Fatal("secure fraction 0.8 should yield some insecure writes")
	}
}

// streamHasher is a null device that folds every field of every request
// it is handed into a SHA-256, so a golden digest pins the emitted stream
// byte for byte.
type streamHasher struct {
	h hash.Hash
	n int
}

func newStreamHasher() *streamHasher { return &streamHasher{h: sha256.New()} }

func (s *streamHasher) Submit(req blockio.Request) (sim.Micros, error) {
	var b [1 + 8 + 4 + 1 + 8 + 8]byte
	b[0] = byte(req.Op)
	binary.LittleEndian.PutUint64(b[1:], uint64(req.LPA))
	binary.LittleEndian.PutUint32(b[9:], uint32(req.Pages))
	if req.Insecure {
		b[13] = 1
	}
	binary.LittleEndian.PutUint64(b[14:], req.FileID)
	binary.LittleEndian.PutUint64(b[22:], uint64(len(req.Data)))
	s.h.Write(b[:])
	s.h.Write(req.Data)
	s.n++
	return 0, nil
}

func (s *streamHasher) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// Golden request streams. These digests were taken from the slice-backed
// generator and bit-at-a-time allocator that preceded the order-statistic
// file set; any change to an RNG draw, a victim choice, an allocated LPA
// or a request boundary moves them. They are what lets a faster host path
// claim the simulation below it is untouched.
func TestGoldenRequestStreams(t *testing.T) {
	const (
		logicalPages = 190_000
		studyPages   = 300_000
		seed         = 7
	)
	recorded := []struct {
		prof     Profile
		secure   float64
		requests int
	}{
		{MailServer(), 1.0, 433551},
		{DBServer(), 1.0, 61433},
		{FileServer(), 1.0, 161577},
		{Mobile(), 1.0, 31742},
		{MailServer(), 0.5, 433551},
	}
	const fillRunName, fillRunN = "Mobile/fill+run", 65223
	name := func(prof Profile, secure float64) string { return fmt.Sprintf("%s/secure%.1f", prof.Name, secure) }
	names := []string{fillRunName}
	for _, c := range recorded {
		names = append(names, name(c.prof, c.secure))
	}
	pins := pintest.Group(t, "workload", names...)
	for _, c := range recorded {
		trace, err := Record(c.prof, logicalPages, pageBytes, studyPages, c.secure, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := newStreamHasher()
		for _, r := range trace.Requests {
			s.Submit(r)
		}
		if s.n != c.requests {
			t.Errorf("%s secure=%.1f: %d requests, want %d", c.prof.Name, c.secure, s.n, c.requests)
		}
		pins.Check(t, name(c.prof, c.secure), s.sum())
	}

	// The experiment shape: prefill to 75 % through Fill, then RunPages,
	// on the profile that exercises paired creates and protected files —
	// once on a file system and generator of their own, and once on those
	// of a retired MailServer pair that ran on a larger device, as a grid
	// cell builds its host side.
	fillRun := func(name string, oldFS *filesys.FS, old *Generator) {
		t.Run(name, func(t *testing.T) {
			s := newStreamHasher()
			fs, err := filesys.NewFrom(oldFS, s, logicalPages, pageBytes)
			if err != nil {
				t.Fatal(err)
			}
			g := NewGeneratorFrom(old, Mobile(), fs, pageBytes, seed)
			if err := g.Fill(0.75); err != nil {
				t.Fatal(err)
			}
			if err := g.RunPages(studyPages); err != nil {
				t.Fatal(err)
			}
			if s.n != fillRunN {
				t.Errorf("Mobile fill+run: %d requests, want %d", s.n, fillRunN)
			}
			pins.Check(t, fillRunName, s.sum())
		})
	}
	fillRun("on its own storage", nil, nil)
	donorFS, err := filesys.New(newStreamHasher(), logicalPages+50_000, pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	donor := NewGenerator(MailServer(), donorFS, pageBytes, seed+1)
	if err := donor.Fill(0.75); err != nil {
		t.Fatal(err)
	}
	if err := donor.RunPages(studyPages / 4); err != nil {
		t.Fatal(err)
	}
	fillRun("on a retired MailServer pair", donorFS, donor)
}
