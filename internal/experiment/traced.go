package experiment

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/audit"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TracedFiles names the artifacts of one traced run. Empty paths are
// skipped.
type TracedFiles struct {
	Chrome      string // Chrome trace_event JSON (Perfetto-loadable)
	JSONL       string // raw event log
	OpenMetrics string // OpenMetrics text exposition
	Audit       string // sanitization audit report JSON
	Stream      string // periodic telemetry samples, JSONL
	// StreamInterval is the simulated µs between streamed samples.
	StreamInterval int64
}

// TracedRun executes one workload × policy cell under a trace.Recorder
// sized to the device, drains the lock manager (ExecuteTraced), writes
// the requested files and logs one line per step to log. It returns the
// audit ledger's end-of-run verification; an unclean report is not an
// error here — the caller decides whether it fails the run.
//
// The events are kept only when an event export (Chrome or JSONL) is
// asked for, in a temporary spill file next to that export, removed when
// the run returns.
func TracedRun(prof workload.Profile, policy ftl.Policy, sc Scale, files TracedFiles, log io.Writer) (_ audit.VerifyReport, err error) {
	rec := sc.recorder()
	if out := cmp.Or(files.Chrome, files.JSONL); out != "" {
		closeSpill, serr := rec.SpillToFile(filepath.Dir(out))
		if serr != nil {
			return audit.VerifyReport{}, serr
		}
		defer func() { err = errors.Join(err, closeSpill()) }()
	}
	var closeStream func() error
	if files.Stream != "" {
		f, finish, err := create(files.Stream)
		if err != nil {
			return audit.VerifyReport{}, err
		}
		rec.StreamTo(f, sim.Micros(files.StreamInterval))
		closeStream = func() error { return finish(rec.CloseStream()) }
	}
	run, err := ExecuteTraced(prof, policy, 1.0, sc, rec)
	if closeStream != nil {
		// A failed run still closes its stream, with the final point.
		err = errors.Join(err, closeStream())
	}
	if err != nil {
		return audit.VerifyReport{}, err
	}
	fmt.Fprintf(log, "traced run: %s × %s — %d requests, %d events (%d dropped), horizon %v\n",
		run.Workload, run.Policy, run.Report.Requests, rec.TotalEvents(), rec.Dropped(), rec.Horizon())
	if closeStream != nil {
		fmt.Fprintf(log, "telemetry stream written to %s (every %d µs simulated)\n", files.Stream, files.StreamInterval)
	}
	horizon := rec.Horizon()
	stats := rec.AuditLedger().Stats(horizon)
	rep := rec.AuditLedger().Verify(horizon)
	for _, out := range []struct {
		path, what, hint string
		write            func(io.Writer) error
	}{
		{files.Chrome, "chrome trace", " (open at ui.perfetto.dev)", rec.WriteChromeTrace},
		{files.JSONL, "event log", "", rec.WriteJSONL},
		{files.OpenMetrics, "openmetrics exposition", "", rec.WriteOpenMetrics},
		{files.Audit, "audit report", "", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				Horizon int64              `json:"horizon_us"`
				Stats   audit.Stats        `json:"stats"`
				Verify  audit.VerifyReport `json:"verify"`
			}{int64(horizon), stats, rep})
		}},
	} {
		if out.path == "" {
			continue
		}
		f, finish, err := create(out.path)
		if err == nil {
			err = finish(out.write(f))
		}
		if err != nil {
			return audit.VerifyReport{}, err
		}
		fmt.Fprintf(log, "%s written to %s%s\n", out.what, out.path, out.hint)
	}
	if rep.Clean() {
		fmt.Fprintf(log, "audit: %d secrets, %d windows closed, zero live unlocked copies\n", rep.Secrets, stats.Windows)
	} else {
		fmt.Fprintf(log, "audit: WARNING — %v\n", rep.Err())
	}
	return rep, nil
}

// create opens path for a traced run's file; finish closes it and
// returns werr, the writing's error, named for path, or else the close's.
func create(path string) (f *os.File, finish func(werr error) error, err error) {
	f, err = os.Create(path)
	return f, func(werr error) error {
		if cerr := f.Close(); werr == nil {
			return cerr
		}
		return fmt.Errorf("experiment: writing %s: %w", path, werr)
	}, err
}
