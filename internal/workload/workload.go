// Package workload generates the four benchmark workloads of the paper's
// evaluation (Table 2) as file-level operation streams over the emulated
// file system:
//
//	MailServer  — r:w 1:1,  create/append/delete e-mails, 16–32 KiB writes
//	DBServer    — r:w 1:10, overwrite data and log files,  16–256 KiB
//	FileServer  — r:w 3:4,  create/append/delete files,    32–128 KiB
//	Mobile      — r:w 1:50, create/delete pictures,        0.5–8 MiB
//
// Each generator is a seeded, deterministic mixture over {read, create,
// append, overwrite, delete} with the paper's write-size ranges, plus a
// space governor that keeps the file system at its target utilization so
// runs reach GC steady state.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/blockio"
	"repro/internal/filesys"
	"repro/internal/sim"
)

// KiB and MiB sizes for the write-size tables.
const (
	KiB = 1024
	MiB = 1024 * 1024
)

// Profile defines one workload's operation mixture.
type Profile struct {
	Name string
	// Operation weights (relative).
	WRead, WCreate, WAppend, WOverwrite, WDelete int
	// Write size range in bytes (uniform).
	MinWrite, MaxWrite int
	// TargetUtilization is the fraction of logical space the governor
	// tries to hold the file system at (deletes are forced above it).
	TargetUtilization float64
	// MaxFiles is the minimum cap on the live-file population; the
	// generator raises it so the population can actually fill the target
	// utilization of the device it runs against (a fixed cap would
	// plateau far below the target on large devices).
	MaxFiles int
	// KeepFraction is the probability a created file is never deleted
	// (write-once content such as kept photos). Such files stay
	// uni-version and only acquire invalid copies through GC, the §3
	// "UV file" population.
	KeepFraction float64
	// PairedCreates is the probability a create produces two files whose
	// writes interleave in 8-page chunks (burst photos, file + sidecar).
	// Interleaving mixes files within flash blocks, so deleting one
	// later forces GC to relocate the survivor — the mechanism behind
	// the paper's nonzero UV-file VAF.
	PairedCreates float64
}

// MailServer returns the mail-server profile.
func MailServer() Profile {
	return Profile{
		Name:  "MailServer",
		WRead: 35, WCreate: 25, WAppend: 10, WOverwrite: 0, WDelete: 20,
		MinWrite: 16 * KiB, MaxWrite: 32 * KiB,
		TargetUtilization: 0.85,
		MaxFiles:          4096,
	}
}

// DBServer returns the database-server profile.
func DBServer() Profile {
	return Profile{
		Name:  "DBServer",
		WRead: 8, WCreate: 2, WAppend: 6, WOverwrite: 80, WDelete: 1,
		MinWrite: 16 * KiB, MaxWrite: 256 * KiB,
		TargetUtilization: 0.85,
		MaxFiles:          512,
	}
}

// FileServer returns the file-server profile.
func FileServer() Profile {
	return Profile{
		Name:  "FileServer",
		WRead: 33, WCreate: 24, WAppend: 20, WOverwrite: 0, WDelete: 23,
		MinWrite: 32 * KiB, MaxWrite: 128 * KiB,
		TargetUtilization: 0.85,
		MaxFiles:          4096,
	}
}

// Mobile returns the smartphone profile (camera-roll style).
func Mobile() Profile {
	return Profile{
		Name:  "Mobile",
		WRead: 1, WCreate: 50, WAppend: 10, WOverwrite: 0, WDelete: 39,
		MinWrite: 512 * KiB, MaxWrite: 8 * MiB,
		TargetUtilization: 0.85,
		MaxFiles:          2048,
		KeepFraction:      0.25,
		PairedCreates:     0.5,
	}
}

// Profiles returns the paper's four workloads in evaluation order.
func Profiles() []Profile {
	return []Profile{MailServer(), DBServer(), FileServer(), Mobile()}
}

// ByName resolves a profile by its Table 2 name.
func ByName(name string) (Profile, error) {
	all := Profiles()
	for _, p := range all {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q (want one of %v)", name, names)
}

// Generator drives a file system with a profile's operation mixture.
type Generator struct {
	prof Profile
	fs   *filesys.FS
	rng  *rand.Rand
	// SecureFraction is the probability a new file requires sanitization
	// (1.0 = everything secured, the Fig. 14(a)(b) default).
	SecureFraction float64

	pageBytes int
	files     *fileSet

	// Counters for ratio verification.
	Reads, Writes, Deletes uint64
	PagesWritten           uint64
}

// NewGenerator builds a generator over fs.
func NewGenerator(prof Profile, fs *filesys.FS, pageBytes int, seed int64) *Generator {
	return NewGeneratorFrom(nil, prof, fs, pageBytes, seed)
}

// NewGeneratorFrom is NewGenerator building on a retired generator's
// storage: the file set's arrays come from old through adopt where they
// are large enough and its random source is re-seeded, and everything
// else about the result is what NewGenerator sets — NewGenerator is this
// body with no donor. old must not be used afterwards; nil is allowed.
func NewGeneratorFrom(old *Generator, prof Profile, fs *filesys.FS, pageBytes int, seed int64) *Generator {
	// Scale the file-population cap to the device: enough files of the
	// profile's mean write size to reach the target utilization, plus
	// slack for churn.
	avgPages := float64(prof.MinWrite+prof.MaxWrite) / 2 / float64(pageBytes)
	if avgPages < 1 {
		avgPages = 1
	}
	needed := int(prof.TargetUtilization*float64(fs.TotalPages())/avgPages) + 8
	if needed > prof.MaxFiles {
		prof.MaxFiles = needed
	}
	if old == nil {
		old = &Generator{}
	}
	rng := old.rng
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	return &Generator{
		prof:           prof,
		fs:             fs,
		rng:            rng,
		SecureFraction: 1.0,
		pageBytes:      pageBytes,
		files:          newFileSet(old.files, prof.MaxFiles),
	}
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// writePages draws a write size in pages.
func (g *Generator) writePages() int {
	bytes := g.prof.MinWrite
	if g.prof.MaxWrite > g.prof.MinWrite {
		bytes += g.rng.Intn(g.prof.MaxWrite - g.prof.MinWrite + 1)
	}
	pages := (bytes + g.pageBytes - 1) / g.pageBytes
	if pages < 1 {
		pages = 1
	}
	return pages
}

// Step performs one workload operation. It returns the number of host
// pages written by the step (0 for reads/deletes).
func (g *Generator) Step() (int, error) {
	// Space governor: force deletes above the utilization target so the
	// device reaches a GC steady state instead of running out of space.
	util := 1 - float64(g.fs.FreePages())/float64(g.fs.TotalPages())
	if util > g.prof.TargetUtilization && g.files.Len() > 0 {
		return 0, g.deleteOne()
	}

	total := g.prof.WRead + g.prof.WCreate + g.prof.WAppend + g.prof.WOverwrite + g.prof.WDelete
	r := g.rng.Intn(total)
	switch {
	case r < g.prof.WRead:
		return 0, g.readOne()
	case r < g.prof.WRead+g.prof.WCreate:
		return g.createOne()
	case r < g.prof.WRead+g.prof.WCreate+g.prof.WAppend:
		return g.appendOne()
	case r < g.prof.WRead+g.prof.WCreate+g.prof.WAppend+g.prof.WOverwrite:
		return g.overwriteOne()
	default:
		return 0, g.deleteOne()
	}
}

// Fill grows the file population with creates and appends only (no
// deletes, reads, or overwrites) until the file system reaches the given
// utilization — the paper's "initially fill 75% of the storage capacity"
// phase. Normal Step() traffic should follow.
func (g *Generator) Fill(utilization float64) error {
	for {
		used := float64(g.fs.TotalPages() - g.fs.FreePages())
		if used >= utilization*float64(g.fs.TotalPages()) {
			return nil
		}
		var err error
		if g.files.Len() < g.prof.MaxFiles && g.rng.Intn(3) > 0 {
			_, err = g.createOne()
		} else {
			_, err = g.appendOne()
		}
		if err != nil {
			return err
		}
	}
}

// RunPages steps the generator until at least pages host pages have been
// written (the paper sizes runs by written volume, e.g. "until the total
// written data size exceeds 64 GiB").
func (g *Generator) RunPages(pages uint64) error {
	start := g.PagesWritten
	for g.PagesWritten-start < pages {
		if _, err := g.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (g *Generator) pick() *filesys.File {
	if g.files.Len() == 0 {
		return nil
	}
	f, _ := g.files.at(g.rng.Intn(g.files.Len()))
	return f
}

func (g *Generator) readOne() error {
	f := g.pick()
	if f == nil || f.Pages() == 0 {
		return nil // nothing to read yet; not an error
	}
	g.Reads++
	n := g.writePages()
	if n > f.Pages() {
		n = f.Pages()
	}
	off := 0
	if f.Pages() > n {
		off = g.rng.Intn(f.Pages() - n + 1)
	}
	return g.fs.Read(f, off, n)
}

func (g *Generator) createOne() (int, error) {
	if g.files.Len() >= g.prof.MaxFiles {
		return g.appendOne()
	}
	if g.prof.PairedCreates > 0 && g.rng.Float64() < g.prof.PairedCreates {
		return g.createPair()
	}
	pages := g.writePages()
	if int64(pages) > g.fs.FreePages() {
		return 0, g.deleteOne()
	}
	if err := g.fs.Append(g.newFile(), pages); err != nil {
		return 0, err
	}
	g.Writes++
	g.PagesWritten += uint64(pages)
	return pages, nil
}

// newFile creates and registers an empty file with the profile's flag
// and protection draws.
func (g *Generator) newFile() *filesys.File {
	var flags filesys.OpenFlag
	if g.rng.Float64() >= g.SecureFraction {
		flags |= filesys.OInsec
	}
	f := g.fs.CreateAnon(flags)
	keep := g.prof.KeepFraction > 0 && g.rng.Float64() < g.prof.KeepFraction
	g.files.push(f, keep)
	return f
}

// createPair writes two new files in alternating 8-page chunks so their
// pages share flash blocks.
func (g *Generator) createPair() (int, error) {
	const chunk = 8
	sizes := [2]int{g.writePages(), g.writePages()}
	if int64(sizes[0]+sizes[1]) > g.fs.FreePages() {
		return 0, g.deleteOne()
	}
	fs := [2]*filesys.File{g.newFile(), g.newFile()}
	total := 0
	remaining := sizes
	for remaining[0] > 0 || remaining[1] > 0 {
		for i := range fs {
			n := chunk
			if n > remaining[i] {
				n = remaining[i]
			}
			if n == 0 {
				continue
			}
			if err := g.fs.Append(fs[i], n); err != nil {
				return total, err
			}
			remaining[i] -= n
			total += n
		}
	}
	g.Writes += 2
	g.PagesWritten += uint64(total)
	return total, nil
}

func (g *Generator) appendOne() (int, error) {
	f := g.pick()
	if f == nil {
		return g.createOne()
	}
	pages := g.writePages()
	if int64(pages) > g.fs.FreePages() {
		return 0, g.deleteOne()
	}
	if err := g.fs.Append(f, pages); err != nil {
		return 0, err
	}
	g.Writes++
	g.PagesWritten += uint64(pages)
	return pages, nil
}

func (g *Generator) overwriteOne() (int, error) {
	f := g.pick()
	if f == nil || f.Pages() == 0 {
		return g.createOne()
	}
	pages := g.writePages()
	if pages > f.Pages() {
		pages = f.Pages()
	}
	off := 0
	if f.Pages() > pages {
		off = g.rng.Intn(f.Pages() - pages + 1)
	}
	if err := g.fs.Overwrite(f, off, pages); err != nil {
		return 0, err
	}
	g.Writes++
	g.PagesWritten += uint64(pages)
	return pages, nil
}

func (g *Generator) deleteOne() error {
	if g.files.Len() == 0 {
		return nil
	}
	// Try a few draws to find a non-protected victim; keep-forever files
	// are spared unless nothing else exists.
	for attempt := 0; attempt < 8; attempt++ {
		i := g.rng.Intn(g.files.Len())
		f, keep := g.files.at(i)
		if keep && attempt < 7 {
			continue
		}
		g.files.remove(i)
		g.Deletes++
		return g.fs.Delete(f)
	}
	return nil
}

// recorder captures the block-I/O stream a generator produces.
type recorder struct {
	trace *blockio.Trace
}

func (r *recorder) Submit(req blockio.Request) (sim.Micros, error) {
	r.trace.Requests = append(r.trace.Requests, req)
	return 0, nil
}

// Record runs a profile against a virtual device of logicalPages pages
// and captures the resulting block-I/O request stream as a replayable
// trace (writes carry no payload — traces are timing-only).
func Record(prof Profile, logicalPages int64, pageBytes int, pages uint64, secureFraction float64, seed int64) (*blockio.Trace, error) {
	rec := &recorder{trace: &blockio.Trace{Name: prof.Name, PageBytes: pageBytes}}
	fs, err := filesys.New(rec, logicalPages, pageBytes)
	if err != nil {
		return nil, err
	}
	gen := NewGenerator(prof, fs, pageBytes, seed)
	gen.SecureFraction = secureFraction
	if err := gen.RunPages(pages); err != nil {
		return nil, err
	}
	return rec.trace, nil
}
