// Package vertrace reimplements the paper's §3 data-versioning study
// (VerTrace): it annotates physical pages with their owning file, tracks
// N_valid(f, t) and N_invalid(f, t) over a logical clock that advances by
// one per 4-KiB host write, classifies files as uni-version (UV) or
// multi-version (MV), and computes the two §3 metrics:
//
//	VAF(f)        = max_t N_invalid(f,t) / max_t N_valid(f,t)
//	T_insecure(f) = total logical time with N_invalid(f,t) > 0,
//	                normalized to the writes needed to fill the device.
//
// It reproduces Table 1 and the Fig. 4 time plots.
package vertrace

import (
	"fmt"
	"sort"

	"repro/internal/audit"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// fileState is a file's device-side record. Every device event raises
// maxValid or maxInvalid, so a record the device touched has one above
// 0. The insecure interval is open while invalid > 0, since
// insecureSince.
type fileState struct {
	valid, invalid, maxValid, maxInvalid int64
	insecureSince, insecureTotal         int64
	watch                                *WatchSeries // Fig. 4 time plots, if watched
}

// fileFlags is a file's host-side record, from the file-system observer.
// Insecure (O_INSEC) files are left out of Table 1, which studies default
// files.
type fileFlags struct{ seen, mv, insecure bool }

// Tracker consumes the FTL's page-lifecycle events (it is the study
// device's trace.Collector; operations and gauges fall through to the
// embedded Nop) and file-system observer events, both per file ID, which
// the file system issues densely from 1. The two sides may run on two
// goroutines: the observer methods touch only flags, Audit and
// AdvanceTicks only the rest, and Finish merges them once both stopped.
type Tracker struct {
	trace.Nop

	flags []fileFlags

	// tick is the logical clock: callers advance it by one per 4-KiB
	// host write (use AdvanceTicks from the device wrapper).
	tick  int64
	files []fileState
	// staleFile holds the owning file of each physical page that is
	// stale and not yet destroyed (0: none), so Destroyed events are
	// deduplicated (a page locked by pLock is later erased too).
	staleFile []uint64
}

// WatchSeries is a Fig. 4 time plot pair for one file.
type WatchSeries struct {
	FileID  uint64
	Valid   *metrics.Series
	Invalid *metrics.Series
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Watch starts recording the Fig. 4 time plots for a file.
func (t *Tracker) Watch(fileID uint64) *WatchSeries {
	ws := &WatchSeries{
		FileID:  fileID,
		Valid:   metrics.NewSeries(fmt.Sprintf("file%d/valid", fileID)),
		Invalid: metrics.NewSeries(fmt.Sprintf("file%d/invalid", fileID)),
	}
	at(&t.files, fileID).watch = ws
	return ws
}

// AdvanceTicks moves the logical clock forward by n 4-KiB-write units.
func (t *Tracker) AdvanceTicks(n int64) { t.tick += n }

// at returns &(*s)[i], growing *s with zero entries to cover i.
func at[T any, I uint32 | uint64](s *[]T, i I) *T {
	if int(i) >= len(*s) {
		*s = append(*s, make([]T, int(i)+1-len(*s))...)
	}
	return &(*s)[i]
}

func (t *Tracker) flag(file uint64) *fileFlags {
	fl := at(&t.flags, file)
	fl.seen = true
	return fl
}

// --- filesys.Observer ----------------------------------------------------

// FileCreated implements filesys.Observer.
func (t *Tracker) FileCreated(id uint64, insecure bool) { t.flag(id).insecure = insecure }

// FileOverwritten implements filesys.Observer: the file is multi-version.
func (t *Tracker) FileOverwritten(id uint64) { t.flag(id).mv = true }

// FileDeleted implements filesys.Observer: deletion also makes the file
// multi-version per the §3 definition.
func (t *Tracker) FileDeleted(id uint64) { t.flag(id).mv = true }

// --- trace.Collector -------------------------------------------------------

// Enabled implements trace.Collector.
func (t *Tracker) Enabled() bool { return true }

// Audit implements trace.Collector: every copy, invalidation and
// destruction the FTL reports, secured or not.
func (t *Tracker) Audit(ev audit.Event) {
	switch ev.Kind {
	case audit.KindCopy:
		t.programmed(ev.File)
	case audit.KindInvalidate:
		t.invalidated(ev.Page, ev.File)
	case audit.KindDestroy:
		t.destroyed(ev.Page)
	}
}

func (t *Tracker) programmed(file uint64) {
	if file == 0 {
		return
	}
	st := at(&t.files, file)
	st.valid++
	if st.valid > st.maxValid {
		st.maxValid = st.valid
	}
	t.record(st)
}

func (t *Tracker) invalidated(p uint32, file uint64) {
	if file == 0 {
		return
	}
	st := at(&t.files, file)
	st.valid--
	st.invalid++
	if st.invalid > st.maxInvalid {
		st.maxInvalid = st.invalid
	}
	*at(&t.staleFile, p) = file
	if st.invalid == 1 {
		st.insecureSince = t.tick
	}
	t.record(st)
}

func (t *Tracker) destroyed(p uint32) {
	if int(p) >= len(t.staleFile) || t.staleFile[p] == 0 {
		return // never stale, or already destroyed (e.g. locked, then erased)
	}
	st := &t.files[t.staleFile[p]]
	t.staleFile[p] = 0
	st.invalid--
	if st.invalid == 0 {
		st.insecureTotal += t.tick - st.insecureSince
	}
	t.record(st)
}

func (t *Tracker) record(st *fileState) {
	if ws := st.watch; ws != nil {
		ws.Valid.Record(t.tick, float64(st.valid))
		ws.Invalid.Record(t.tick, float64(st.invalid))
	}
}

// FileMetrics are the §3 per-file results.
type FileMetrics struct {
	FileID     uint64
	MV         bool
	MaxValid   int64
	MaxInvalid int64
	VAF        float64
	// TInsecure is normalized to capacityTicks (the writes needed to
	// fill the device): 1.0 means the file had stale versions present
	// for a full capacity's worth of writes.
	TInsecure float64
}

// Finish closes open insecure intervals and computes per-file metrics,
// in file ID order. capacityTicks is the number of 4-KiB writes that
// fill the device.
func (t *Tracker) Finish(capacityTicks int64) []FileMetrics {
	if capacityTicks <= 0 {
		panic("vertrace: capacityTicks must be positive")
	}
	var out []FileMetrics
	for id := 1; id < max(len(t.files), len(t.flags)); id++ {
		st, fl := at(&t.files, uint64(id)), at(&t.flags, uint64(id))
		if fl.insecure || !fl.seen && st.maxValid == 0 && st.maxInvalid == 0 {
			continue
		}
		total := st.insecureTotal
		if st.invalid > 0 {
			total += t.tick - st.insecureSince
		}
		m := FileMetrics{
			FileID:     uint64(id),
			MV:         fl.mv,
			MaxValid:   st.maxValid,
			MaxInvalid: st.maxInvalid,
			TInsecure:  float64(total) / float64(capacityTicks),
		}
		if st.maxValid > 0 {
			m.VAF = float64(st.maxInvalid) / float64(st.maxValid)
		}
		out = append(out, m)
	}
	return out
}

// GroupStats is one Table 1 cell group (UV or MV).
type GroupStats struct {
	Files     int
	VAFAvg    float64
	VAFMax    float64
	TInsecAvg float64
	TInsecMax float64
}

// Table1Row holds the UV and MV statistics for one workload.
type Table1Row struct {
	Workload string
	UV, MV   GroupStats
}

// Summarize aggregates per-file metrics into a Table 1 row.
func Summarize(workload string, files []FileMetrics) Table1Row {
	row := Table1Row{Workload: workload}
	agg := func(sel func(FileMetrics) bool) GroupStats {
		var g GroupStats
		var vafSum, tSum float64
		for _, f := range files {
			if !sel(f) {
				continue
			}
			g.Files++
			vafSum += f.VAF
			tSum += f.TInsecure
			if f.VAF > g.VAFMax {
				g.VAFMax = f.VAF
			}
			if f.TInsecure > g.TInsecMax {
				g.TInsecMax = f.TInsecure
			}
		}
		if g.Files > 0 {
			g.VAFAvg = vafSum / float64(g.Files)
			g.TInsecAvg = tSum / float64(g.Files)
		}
		return g
	}
	row.UV = agg(func(f FileMetrics) bool { return !f.MV })
	row.MV = agg(func(f FileMetrics) bool { return f.MV })
	return row
}

// TopFiles returns the file IDs with the largest metric values, for
// selecting the Fig. 4 representatives (fmb: a UV file with many invalid
// pages; fdb: an MV file with the highest VAF).
func TopFiles(files []FileMetrics, mv bool, n int) []FileMetrics {
	var pool []FileMetrics
	for _, f := range files {
		if f.MV == mv {
			pool = append(pool, f)
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].MaxInvalid != pool[j].MaxInvalid {
			return pool[i].MaxInvalid > pool[j].MaxInvalid
		}
		return pool[i].FileID < pool[j].FileID
	})
	if len(pool) > n {
		pool = pool[:n]
	}
	return pool
}
