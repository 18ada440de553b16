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

// fileState is the per-file tracking record.
type fileState struct {
	valid, invalid int64
	maxValid       int64
	maxInvalid     int64
	mv             bool
	insecure       bool // O_INSEC (excluded from Table 1, which studies default files)
	insecureSince  int64
	insecureTotal  int64
	everSeen       bool
}

// Tracker consumes the FTL's page-lifecycle events (it is the study
// device's trace.Collector; operations and gauges fall through to the
// embedded Nop) and file-system observer events.
type Tracker struct {
	trace.Nop

	// Tick is the logical clock: callers advance it by one per 4-KiB
	// host write (use AdvanceTicks from the device wrapper).
	tick int64

	files map[uint64]*fileState
	// staleFile remembers which file each physically-present stale page
	// belongs to, so Destroyed events can be deduplicated (a page locked
	// by pLock is later erased too).
	staleFile map[uint32]uint64

	// watch holds the files whose N_valid/N_invalid time plots are
	// recorded (Fig. 4).
	watch map[uint64]*WatchSeries
}

// WatchSeries is a Fig. 4 time plot pair for one file.
type WatchSeries struct {
	FileID  uint64
	Valid   *metrics.Series
	Invalid *metrics.Series
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		files:     map[uint64]*fileState{},
		staleFile: map[uint32]uint64{},
		watch:     map[uint64]*WatchSeries{},
	}
}

// Watch starts recording the Fig. 4 time plots for a file.
func (t *Tracker) Watch(fileID uint64) *WatchSeries {
	ws := &WatchSeries{
		FileID:  fileID,
		Valid:   metrics.NewSeries(fmt.Sprintf("file%d/valid", fileID)),
		Invalid: metrics.NewSeries(fmt.Sprintf("file%d/invalid", fileID)),
	}
	t.watch[fileID] = ws
	return ws
}

// AdvanceTicks moves the logical clock forward by n 4-KiB-write units.
func (t *Tracker) AdvanceTicks(n int64) { t.tick += n }

func (t *Tracker) state(file uint64) *fileState {
	st, ok := t.files[file]
	if !ok {
		st = &fileState{insecureSince: -1}
		t.files[file] = st
	}
	st.everSeen = true
	return st
}

// --- filesys.Observer ----------------------------------------------------

// FileCreated implements filesys.Observer.
func (t *Tracker) FileCreated(id uint64, insecure bool) {
	st := t.state(id)
	st.insecure = insecure
}

// FileOverwritten implements filesys.Observer: the file is multi-version.
func (t *Tracker) FileOverwritten(id uint64) { t.state(id).mv = true }

// FileDeleted implements filesys.Observer: deletion also makes the file
// multi-version per the §3 definition.
func (t *Tracker) FileDeleted(id uint64) { t.state(id).mv = true }

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
	st := t.state(file)
	st.valid++
	if st.valid > st.maxValid {
		st.maxValid = st.valid
	}
	t.record(file, st)
}

func (t *Tracker) invalidated(p uint32, file uint64) {
	if file == 0 {
		return
	}
	st := t.state(file)
	st.valid--
	st.invalid++
	if st.invalid > st.maxInvalid {
		st.maxInvalid = st.invalid
	}
	t.staleFile[p] = file
	if st.invalid == 1 && st.insecureSince < 0 {
		st.insecureSince = t.tick
	}
	t.record(file, st)
}

func (t *Tracker) destroyed(p uint32) {
	owner, present := t.staleFile[p]
	if !present {
		return // already destroyed (e.g. locked, then erased)
	}
	delete(t.staleFile, p)
	if owner == 0 {
		return
	}
	st := t.state(owner)
	st.invalid--
	if st.invalid == 0 && st.insecureSince >= 0 {
		st.insecureTotal += t.tick - st.insecureSince
		st.insecureSince = -1
	}
	t.record(owner, st)
}

func (t *Tracker) record(file uint64, st *fileState) {
	if ws, ok := t.watch[file]; ok {
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

// Finish closes open insecure intervals and computes per-file metrics.
// capacityTicks is the number of 4-KiB writes that fill the device.
func (t *Tracker) Finish(capacityTicks int64) []FileMetrics {
	if capacityTicks <= 0 {
		panic("vertrace: capacityTicks must be positive")
	}
	out := make([]FileMetrics, 0, len(t.files))
	for id, st := range t.files {
		if st.insecure || !st.everSeen {
			continue
		}
		total := st.insecureTotal
		if st.insecureSince >= 0 {
			total += t.tick - st.insecureSince
		}
		m := FileMetrics{
			FileID:     id,
			MV:         st.mv,
			MaxValid:   st.maxValid,
			MaxInvalid: st.maxInvalid,
			TInsecure:  float64(total) / float64(capacityTicks),
		}
		if st.maxValid > 0 {
			m.VAF = float64(st.maxInvalid) / float64(st.maxValid)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FileID < out[j].FileID })
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
